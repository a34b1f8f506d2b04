// HTAP benchmark driver: three named workloads run through the engine's
// public API, one JSON result line at the end (see README.md next to this
// file for why each workload exists and what each metric should move).
//
//   htap_bench --workload <olap_frozen|olap_evicted|htap_mixed>
//              --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]
//
// Steadiness rules the design follows:
//   * Fixed work per run: --seconds sets a fixed number of 22-query passes
//     or transactions (a nominal rate times the seconds), never a deadline,
//     so a faster engine does the same work sooner.
//   * One private 2-worker Scheduler serves every parallel pipeline and
//     the server; at most two client threads run beside it.
//   * Lifecycle ticks happen at fixed points of the loop (never on a
//     timer), so reload counts repeat exactly.
//   * Untimed warm-up passes precede timing; a tail percentile is only
//     reported when at least ten samples lie above it.
//
// --trace 1 measures untraced and traced work in every round, reports the
// per-layer metrics of the traced part plus the throughput difference (the
// tracing overhead), and dumps the spans to <out-dir>/spans-<workload>.csv
// for spans.py.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "exec/partitioned_agg.h"
#include "exec/scheduler.h"
#include "lifecycle/lifecycle_manager.h"
#include "obs/query_profile.h"
#include "serve/server.h"
#include "tpcc/tpcc_db.h"
#include "tpch/queries.h"
#include "util/rng.h"

using namespace datablocks;
namespace fs = std::filesystem;

namespace {

constexpr double kScaleFactor = 0.1;  // TPC-H; every constant below assumes it
constexpr int kQueries = 22;
constexpr int kTxnTypes = 5;
constexpr const char* kTxnNames[kTxnTypes] = {
    "neworder", "payment", "orderstatus", "delivery", "stocklevel"};
constexpr unsigned kWorkers = 2;      // scheduler workers = query threads
constexpr int kRounds = 3;            // setup + measurement rounds per run
constexpr int kWarmUpPasses = 4;
// OLAP tail percentile. It lies inside the slowest query's share of the
// 22-query mix (the top 1/22 = 4.5%); p95 sits at the border between the
// two slowest queries and jumps between them from run to run.
constexpr double kOlapTail = 0.98;
constexpr double kHtapOltpRate = 2000;  // open-loop tx/s in htap_mixed

// Work per --seconds, calibrated on a 4-vCPU x86-64 VM so that a run
// measures for about --seconds. They are constants, not measurements:
// every run of one build does the same work.
constexpr double kFrozenPassesPerS = 4.0;
constexpr double kEvictedPassesPerS = 2.0;
// OLTP requests of htap_mixed per --second; sent at kHtapOltpRate, the
// stream lasts twice --seconds because its latencies spread the most.
constexpr double kHtapTxnsPerS = 2 * kHtapOltpRate;

uint64_t NowNs() { return obs::MonotonicNs(); }

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr,
               "htap_bench: %s\nusage: htap_bench --workload "
               "<olap_frozen|olap_evicted|htap_mixed> --seed <n> "
               "--seconds <1..600> --trace <0|1> [--out-dir <dir>]\n",
               why.c_str());
  std::exit(2);
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string out_dir = ".bench_build/run";
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  std::map<std::string, std::string> kv;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) Usage("unexpected argument '" + arg + "'");
    std::string value;
    const size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
    } else {
      if (i + 1 >= argc) Usage("missing value for " + arg);
      value = argv[++i];
    }
    kv[arg] = value;
  }
  for (const auto& [flag, value] : kv) {
    char* end = nullptr;
    errno = 0;
    if (flag == "--workload") {
      if (value != "olap_frozen" && value != "olap_evicted" &&
          value != "htap_mixed")
        Usage("unknown workload '" + value + "'");
      a.workload = value;
    } else if (flag == "--seed") {
      const unsigned long long v = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0' || errno != 0 || value[0] == '-')
        Usage("bad --seed '" + value + "'");
      a.seed = v;
    } else if (flag == "--seconds") {
      const long v = std::strtol(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0' || v < 1 || v > 600)
        Usage("bad --seconds '" + value + "'");
      a.seconds = int(v);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("bad --trace '" + value + "'");
      a.trace = value == "1";
    } else if (flag == "--out-dir") {
      if (value.empty()) Usage("empty --out-dir");
      a.out_dir = value;
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (a.workload.empty()) Usage("--workload is required");
  return a;
}

/// Independent sub-seeds of the workload seed (SplitMix64 finalizer).
uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

/// Nearest-rank quantile; q in [0, 1]. Empty input yields 0.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = size_t(std::ceil(q * double(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

/// A tail percentile, refused when fewer than ten samples lie above it.
double Tail(const std::vector<double>& v, double q, const char* what) {
  if (double(v.size()) * (1 - q) < 10 - 1e-9) {
    throw std::runtime_error(std::string("too few samples for the tail of ") +
                             what + ": " + std::to_string(v.size()));
  }
  return Quantile(v, q);
}

double GeoMean(const std::vector<double>& v) {
  double log_sum = 0;
  for (double x : v) log_sum += std::log(x);
  return v.empty() ? 0 : std::exp(log_sum / double(v.size()));
}

uint64_t Fnv1a(uint64_t h, const std::string& s) {
  for (char c : s) h = (h ^ uint8_t(c)) * 1099511628211ull;
  return h;
}

/// Peak resident set of this process (VmHWM), in MB.
double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024;
  }
  return 0;
}

constexpr double kMb = 1024.0 * 1024.0;

// ---------------------------------------------------------------------------
// Tracing: spans recorded around the benchmark's own calls into the engine,
// kept in memory, written out at exit. Spans of one request share `req`;
// `parent` links a span to the span that contains it.
// ---------------------------------------------------------------------------

struct SpanRec {
  uint64_t id, parent, req;
  const char* name;
  uint64_t start_ns, end_ns;
  int tag;  // transaction type or query number; -1 = none
};

class Tracer {
 public:
  bool on() const { return on_; }
  void set_on(bool on) { on_ = on; }

  /// Ids of spans that are not request-level; request-level spans use
  /// req * 8 + k, below this range.
  uint64_t NewId() { return (uint64_t{1} << 62) + next_id_.fetch_add(1); }

  void Add(const SpanRec& s) {
    if (!on_) return;
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(s);
  }
  /// Records [start, now) and returns now.
  uint64_t Close(const char* name, uint64_t start, uint64_t req = 0,
                 uint64_t parent = 0, int tag = -1) {
    const uint64_t end = NowNs();
    if (on_) Add({NewId(), parent, req, name, start, end, tag});
    return end;
  }

  void Dump(const std::string& path, const std::string& header) {
    std::ofstream out(path);
    out << "# " << header << "\n";
    out << "id,parent,req,name,start_ns,end_ns,tag\n";
    std::lock_guard<std::mutex> lock(mu_);
    for (const SpanRec& s : spans_) {
      out << s.id << ',' << s.parent << ',' << s.req << ',' << s.name << ','
          << s.start_ns << ',' << s.end_ns << ',' << s.tag << '\n';
    }
  }

 private:
  std::atomic<bool> on_{false};
  std::atomic<uint64_t> next_id_{0};
  std::mutex mu_;
  std::vector<SpanRec> spans_;
};

Tracer g_tracer;

// ---------------------------------------------------------------------------
// Metrics output
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    for (Metric& m : metrics_) {
      if (m.name == name) {
        m.value = value;
        m.unit = unit;
        return;
      }
    }
    metrics_.push_back({name, value, unit});
  }
  std::string MetricsJson() const {
    std::string s = "{";
    char buf[64];
    for (size_t i = 0; i < metrics_.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%.17g",
                    std::isfinite(metrics_[i].value) ? metrics_[i].value : 0);
      s += (i ? ", \"" : "\"") + metrics_[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + metrics_[i].unit + "\"}";
    }
    return s + "}";
  }
  void PrintTable() const {
    for (const Metric& m : metrics_) {
      std::printf("  %-32s %14.4f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }

 private:
  std::vector<Metric> metrics_;
};

/// Operation accounting shared by every workload.
struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;  // correctness failures

  void Fail(std::string why) {
    std::fprintf(stderr, "FAIL: %s\n", why.c_str());
    errors.push_back(std::move(why));
  }
  /// Counts one served request; non-kOk responses are failures.
  bool Served(const serve::Response& r, const std::string& what) {
    ++attempted;
    if (r.status == serve::Status::kOk) return true;
    ++failed;
    std::fprintf(stderr, "%s: %s %s\n", what.c_str(),
                 serve::StatusName(r.status), r.payload.c_str());
    return false;
  }
};

// ---------------------------------------------------------------------------
// Per-layer counters read from public engine state
// ---------------------------------------------------------------------------

struct SchedCounts {
  uint64_t tasks = 0, steals = 0;
  static SchedCounts Read(const Scheduler& s) {
    SchedCounts c;
    for (const auto& w : s.worker_stats()) {
      c.tasks += w.tasks_run;
      c.steals += w.steals;
    }
    return c;
  }
};

struct LifeCounts {
  uint64_t reloads = 0, archive_reads = 0, summary_bytes = 0;
  static LifeCounts Read(const std::vector<LifecycleManager*>& mgrs) {
    LifeCounts c;
    for (const LifecycleManager* m : mgrs) {
      const LifecycleStats s = m->stats();
      c.reloads += s.reloads;
      c.archive_reads += s.archive_reads;
      c.summary_bytes += s.summary_bytes;
    }
    return c;
  }
};

/// Scan facts and timings summed over the profiles of the queries of one
/// pass (traced runs attach an obs::QueryProfile to every RunQuery).
struct ProfileAcc {
  double query_ms = 0, pipeline_ms = 0, merge_ms = 0;
  uint64_t chunks_scanned = 0, chunks_pruned = 0, evicted_pruned = 0;
  uint64_t rows_in = 0, pins = 0, batches = 0, code_batches = 0;
  std::vector<std::pair<int, double>> per_query_ms;  // (query, RunQuery ms)

  void Add(int q, const obs::QueryProfile& p, double ms) {
    query_ms += ms;
    per_query_ms.emplace_back(q, ms);
    for (size_t i = 0; i < p.num_pipelines(); ++i) {
      const auto t = p.pipeline(i)->totals();
      pipeline_ms += double(t.wall_ns) / 1e6;
      merge_ms += double(t.merge_ns) / 1e6;
      chunks_scanned += t.chunks_scanned;
      chunks_pruned += t.chunks_pruned;
      evicted_pruned += t.evicted_chunks_pruned;
      rows_in += t.rows_in;
      pins += t.pins;
      batches += t.batches;
      code_batches += t.code_batches;
    }
  }
};

/// Per-window (pass or transaction window) layer samples; medians are
/// reported.
struct LayerSamples {
  std::vector<double> pipeline_ms, merge_ms, unattributed_ms;
  std::vector<double> chunks_scanned, chunks_pruned, prune_ratio, rows_in,
      pins, coded_ratio, evicted_skipped;
  std::vector<double> tasks, steals, steal_ratio, agg_peak_mb;
  std::vector<double> reloads, archive_reads, tick_ms;
};

// ---------------------------------------------------------------------------
// TPC-H side: setup, the served query stream, correctness checks
// ---------------------------------------------------------------------------

struct TpchSetup {
  std::unique_ptr<tpch::TpchDatabase> db;  // destroyed after the managers
  std::vector<std::unique_ptr<LifecycleManager>> managers;
  double dbgen_s = 0, freeze_s = 0, evict_s = 0;
  double compression_ratio = 0;

  std::vector<LifecycleManager*> manager_ptrs() const {
    std::vector<LifecycleManager*> out;
    for (const auto& m : managers) out.push_back(m.get());
    return out;
  }
};

std::vector<Table*> TpchTables(tpch::TpchDatabase& db) {
  return {&db.region,   &db.nation,   &db.supplier, &db.customer,
          &db.part,     &db.partsupp, &db.orders,   &db.lineitem};
}

uint64_t TablesBytes(const std::vector<Table*>& tables) {
  uint64_t b = 0;
  for (const Table* t : tables) b += t->MemoryBytes();
  return b;
}

void BuildTpchData(TpchSetup* s, const Args& args) {
  tpch::TpchConfig cfg;
  cfg.scale_factor = kScaleFactor;
  cfg.seed = SubSeed(args.seed, 1);
  const uint64_t t0 = NowNs();
  s->db = tpch::MakeTpch(cfg);
  const uint64_t t1 = g_tracer.Close("setup.tpch_dbgen", t0);
  const uint64_t hot = TablesBytes(TpchTables(*s->db));
  s->db->FreezeAll();
  const uint64_t t2 = g_tracer.Close("setup.datablock_freeze", t1);
  s->compression_ratio = double(hot) / double(TablesBytes(TpchTables(*s->db)));
  s->dbgen_s = double(t1 - t0) / 1e9;
  s->freeze_s = double(t2 - t1) / 1e9;
}

/// Puts lineitem and orders under budget-0 lifecycle managers and evicts
/// every block to archives in `dir`.
void EvictFacts(TpchSetup* s, const std::string& dir) {
  const uint64_t t0 = NowNs();
  LifecycleConfig lc;
  lc.memory_budget_bytes = 0;
  for (Table* t : {&s->db->lineitem, &s->db->orders}) {
    s->managers.push_back(std::make_unique<LifecycleManager>(
        t, dir + "/tpch_" + t->name() + ".dbar", lc));
    s->managers.back()->Tick();
  }
  s->evict_s = double(g_tracer.Close("setup.storage_evict", t0) - t0) / 1e9;
}

tpch::ScanOptions OlapOptions(Scheduler* sched, obs::QueryProfile* profile) {
  tpch::ScanOptions opt;
  opt.mode = ScanMode::kDataBlocksPsma;
  opt.ctx.threads = kWorkers;
  opt.ctx.scheduler = sched;
  opt.ctx.profile = profile;
  return opt;
}

std::string Verb(int q) { return "tpch.q" + std::to_string(q); }

/// The served TPC-H handlers. Each request's args carry its request id, so
/// the handler's RunQuery span joins the request's spans.
class TpchService {
 public:
  TpchService(serve::Server* server, const tpch::TpchDatabase* db,
              Scheduler* sched)
      : db_(db), sched_(sched) {
    for (int q = 1; q <= kQueries; ++q) {
      server->RegisterHandler(Verb(q), [this, q](std::string_view args) {
        return Run(q, std::strtoull(std::string(args).c_str(), nullptr, 10));
      });
    }
  }

  /// Profiles of the traced queries since the last call.
  ProfileAcc TakeProfile() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::exchange(acc_, ProfileAcc{});
  }

 private:
  std::string Run(int q, uint64_t req) {
    if (!g_tracer.on()) {
      return tpch::RunQuery(q, *db_, OlapOptions(sched_, nullptr)).ToString();
    }
    obs::QueryProfile profile("Q" + std::to_string(q), "+PSMA", kWorkers);
    const uint64_t t0 = NowNs();
    std::string out =
        tpch::RunQuery(q, *db_, OlapOptions(sched_, &profile)).ToString();
    const uint64_t t1 =
        g_tracer.Close("tpch.run_query", t0, req, req * 8 + 3, q);
    profile.Finish();
    std::lock_guard<std::mutex> lock(mu_);
    acc_.Add(q, profile, double(t1 - t0) / 1e6);
    return out;
  }

  const tpch::TpchDatabase* db_;
  Scheduler* sched_;
  std::mutex mu_;
  ProfileAcc acc_;
};

/// Records the request-level spans of one served call from its Response:
/// the call itself, then admission wait, dispatch (scheduler wait plus
/// delivery) and execution, laid end to end. Ids: req*8 + {0,1,2,3}.
void TraceCall(uint64_t req, uint64_t start_ns, const serve::Response& r,
               int tag) {
  if (!g_tracer.on()) return;
  const uint64_t end = start_ns + r.total_ns;
  const uint64_t queue = std::min(r.queue_ns, r.total_ns);
  const uint64_t exec_start = end - std::min(r.exec_ns, r.total_ns - queue);
  g_tracer.Add({req * 8, 0, req, "serve.call", start_ns, end, tag});
  g_tracer.Add({req * 8 + 1, req * 8, req, "serve.admission", start_ns,
                start_ns + queue, tag});
  g_tracer.Add({req * 8 + 2, req * 8, req, "serve.dispatch", start_ns + queue,
                exec_start, tag});
  g_tracer.Add({req * 8 + 3, req * 8, req, "serve.exec", exec_start, end, tag});
}

std::atomic<uint64_t> g_next_req{1};

/// Runs all 22 queries directly and checks the results: non-empty, one row
/// for the single-row queries.
std::vector<std::string> DirectResults(const tpch::TpchDatabase& db,
                                       Scheduler* sched, Outcome* out) {
  std::vector<std::string> res;
  for (int q = 1; q <= kQueries; ++q) {
    const tpch::QueryResult r =
        tpch::RunQuery(q, db, OlapOptions(sched, nullptr));
    const bool single = q == 6 || q == 14 || q == 15 || q == 17 || q == 19;
    if (r.rows.empty()) out->Fail("Q" + std::to_string(q) + " returned no rows");
    if (single && r.rows.size() != 1) {
      out->Fail("Q" + std::to_string(q) + " returned " +
                std::to_string(r.rows.size()) + " rows, expected 1");
    }
    res.push_back(r.ToString());
  }
  return res;
}

uint64_t Checksum(const std::vector<std::string>& results) {
  uint64_t h = 1469598103934665603ull;
  for (const std::string& r : results) h = Fnv1a(h, r);
  return h;
}

/// Latency and layer samples of the OLAP stream, pooled over rounds.
struct OlapStats {
  std::vector<double> lat_ms[kQueries];
  std::vector<double> pass_qps;
  std::vector<double> run_query_ms[kQueries];  // traced passes only
  LayerSamples layers;                         // traced passes only
};

/// A closed-loop OLAP client: one session, query order 1..22.
class OlapClient {
 public:
  OlapClient(serve::Server* server, TpchService* service,
             const std::vector<std::string>* expected, Scheduler* sched,
             std::vector<LifecycleManager*> tick_after_query, Outcome* out)
      : session_(server->OpenSession("olap", serve::Priority::kOlap)),
        service_(service),
        expected_(expected),
        sched_(sched),
        managers_(std::move(tick_after_query)),
        out_(out) {}

  /// One query through the session, compared with the expected payload,
  /// then the lifecycle ticks. Returns the query's latency in ms.
  double Query(int q) {
    const uint64_t req = g_next_req.fetch_add(1);
    const uint64_t t0 = NowNs();
    const serve::Response r =
        session_->Call(Verb(q), std::to_string(req)).Get();
    const double ms = double(NowNs() - t0) / 1e6;
    TraceCall(req, t0, r, q);
    if (out_->Served(r, "Q" + std::to_string(q)) &&
        r.payload != (*expected_)[size_t(q - 1)]) {
      ++out_->failed;
      out_->Fail("Q" + std::to_string(q) +
                 " through the server differs from the direct result");
    }
    if (!managers_.empty()) {
      const uint64_t t1 = NowNs();
      for (LifecycleManager* m : managers_) m->Tick();
      tick_ms_ += double(g_tracer.Close("lifecycle.tick", t1) - t1) / 1e6;
    }
    return ms;
  }

  /// Untimed warm-up passes. The first passes after setup run up to 25%
  /// slower while the workers' allocations first touch their memory.
  void WarmUp() {
    for (int p = 0; p < kWarmUpPasses; ++p) {
      for (int q = 1; q <= kQueries; ++q) Query(q);
    }
  }

  /// Runs one pass into `stats`; `stop` (when given) ends it early between
  /// queries. Returns true when all 22 queries ran.
  bool Pass(OlapStats* stats, const std::atomic<bool>* stop = nullptr) {
    const bool traced = g_tracer.on();
    const SchedCounts s0 = SchedCounts::Read(*sched_);
    const LifeCounts l0 = LifeCounts::Read(managers_);
    if (traced) {
      service_->TakeProfile();
      aggstate::ResetPeaks();
    }
    tick_ms_ = 0;
    const uint64_t t0 = NowNs();
    for (int q = 1; q <= kQueries; ++q) {
      if (stop != nullptr && stop->load()) return false;
      stats->lat_ms[q - 1].push_back(Query(q));
    }
    stats->pass_qps.push_back(kQueries / (double(NowNs() - t0) / 1e9));
    if (!traced) return true;
    const SchedCounts s1 = SchedCounts::Read(*sched_);
    const LifeCounts l1 = LifeCounts::Read(managers_);
    const ProfileAcc p = service_->TakeProfile();
    for (const auto& [q, ms] : p.per_query_ms) {
      stats->run_query_ms[q - 1].push_back(ms);
    }
    LayerSamples& l = stats->layers;
    l.pipeline_ms.push_back(p.pipeline_ms);
    l.merge_ms.push_back(p.merge_ms);
    l.unattributed_ms.push_back(p.query_ms - p.pipeline_ms);
    l.chunks_scanned.push_back(double(p.chunks_scanned));
    l.chunks_pruned.push_back(double(p.chunks_pruned));
    l.prune_ratio.push_back(
        double(p.chunks_pruned) /
        double(std::max<uint64_t>(1, p.chunks_pruned + p.chunks_scanned)));
    l.rows_in.push_back(double(p.rows_in));
    l.pins.push_back(double(p.pins));
    l.coded_ratio.push_back(double(p.code_batches) /
                            double(std::max<uint64_t>(1, p.batches)));
    l.evicted_skipped.push_back(double(p.evicted_pruned));
    const double tasks = double(s1.tasks - s0.tasks);
    const double steals = double(s1.steals - s0.steals);
    l.tasks.push_back(tasks);
    l.steals.push_back(steals);
    l.steal_ratio.push_back(steals / std::max(1.0, tasks));
    l.agg_peak_mb.push_back(double(aggstate::GetStats().peak_total_bytes) /
                            kMb);
    l.reloads.push_back(double(l1.reloads - l0.reloads));
    l.archive_reads.push_back(double(l1.archive_reads - l0.archive_reads));
    l.tick_ms.push_back(tick_ms_);
    return true;
  }

 private:
  std::unique_ptr<serve::Session> session_;
  TpchService* service_;
  const std::vector<std::string>* expected_;
  Scheduler* sched_;
  std::vector<LifecycleManager*> managers_;
  Outcome* out_;
  double tick_ms_ = 0;
};

void ReportOlap(const OlapStats& st, Report* rep) {
  std::vector<double> all, medians;
  for (const auto& v : st.lat_ms) {
    all.insert(all.end(), v.begin(), v.end());
    if (!v.empty()) medians.push_back(Median(v));
  }
  rep->Set("ops_per_s", Median(st.pass_qps), "1/s");
  rep->Set("op_geomean_ms", GeoMean(medians), "ms");
  rep->Set("op_tail_ms", Tail(all, kOlapTail, "query latency"), "ms");
}

void ReportOlapLayers(const OlapStats& st, Report* rep) {
  for (int q = 1; q <= kQueries; ++q) {
    char name[32];
    std::snprintf(name, sizeof(name), "tpch.q%02d_ms", q);
    rep->Set(name, Median(st.run_query_ms[q - 1]), "ms");
  }
  const LayerSamples& l = st.layers;
  rep->Set("tpch.pipeline_ms", Median(l.pipeline_ms), "ms");
  rep->Set("tpch.merge_ms", Median(l.merge_ms), "ms");
  rep->Set("tpch.unattributed_ms", Median(l.unattributed_ms), "ms");
  rep->Set("scan.chunks_scanned", Median(l.chunks_scanned), "count");
  rep->Set("scan.chunks_pruned", Median(l.chunks_pruned), "count");
  rep->Set("scan.prune_ratio", Median(l.prune_ratio), "ratio");
  rep->Set("scan.rows_considered", Median(l.rows_in), "count");
  rep->Set("scan.pins", Median(l.pins), "count");
  rep->Set("scan.batches_coded_ratio", Median(l.coded_ratio), "ratio");
  rep->Set("exec.tasks_run", Median(l.tasks), "count");
  rep->Set("exec.steals", Median(l.steals), "count");
  rep->Set("exec.steal_ratio", Median(l.steal_ratio), "ratio");
  rep->Set("agg.state_peak_mb", Median(l.agg_peak_mb), "MB");
  rep->Set("lifecycle.reloads", Median(l.reloads), "count");
  rep->Set("lifecycle.evicted_skipped", Median(l.evicted_skipped), "count");
  rep->Set("storage.archive_reads", Median(l.archive_reads), "count");
  rep->Set("lifecycle.tick_ms", Median(l.tick_ms), "ms");
}

// ---------------------------------------------------------------------------
// TPC-C side
// ---------------------------------------------------------------------------

std::unique_ptr<tpcc::TpccDatabase> LoadTpcc(const Args& args,
                                             double* load_s) {
  tpcc::TpccConfig cfg;
  cfg.num_warehouses = 1;
  cfg.seed = SubSeed(args.seed, 2);
  const uint64_t t0 = NowNs();
  auto db = std::make_unique<tpcc::TpccDatabase>(cfg);
  db->Load();
  *load_s = double(g_tracer.Close("setup.tpcc_load", t0) - t0) / 1e9;
  return db;
}

std::vector<Table*> TpccTables(tpcc::TpccDatabase& db) {
  return {&db.item,     &db.warehouse, &db.district,
          &db.customer, &db.history,   &db.neworder,
          &db.order,    &db.orderline, &db.stock};
}

/// One mixed transaction; returns its type, and whether a NewOrder rolled
/// back (the order table did not grow).
int RunTxn(tpcc::TpccDatabase& db, Rng& rng, bool* rolled_back) {
  const uint64_t orders = db.order.num_rows();
  const int type = db.RunMixedTransaction(rng);
  *rolled_back = type == 0 && db.order.num_rows() == orders;
  return type;
}

/// Per-type latency samples plus the rollback count.
struct TxnSamples {
  std::vector<double> by_type_ms[kTxnTypes];
  std::vector<double> all_ms;
  uint64_t rollbacks = 0, neworders = 0;

  void Add(int type, bool rolled_back, double ms) {
    by_type_ms[type].push_back(ms);
    all_ms.push_back(ms);
    neworders += type == 0;
    rollbacks += rolled_back;
  }
  double TypeGeoMean() const {
    std::vector<double> medians;
    for (const auto& v : by_type_ms) {
      if (!v.empty()) medians.push_back(Median(v));
    }
    return GeoMean(medians);
  }
  double RollbackPct() const {
    return 100.0 * double(rollbacks) /
           double(std::max<uint64_t>(1, neworders));
  }
};

void ReportTxn(const TxnSamples& s, Report* rep) {
  rep->Set("op_geomean_ms", s.TypeGeoMean(), "ms");
  rep->Set("op_tail_ms", Tail(s.all_ms, 0.99, "txn latency"), "ms");
}

void ReportTxnLayers(const TxnSamples& s, Report* rep) {
  for (int t = 0; t < kTxnTypes; ++t) {
    const std::string base = std::string("tpcc.") + kTxnNames[t];
    std::vector<double> us = s.by_type_ms[t];
    for (double& x : us) x *= 1e3;
    rep->Set(base + "_p50_us", Median(us), "us");
    rep->Set(base + "_p99_us", Tail(us, 0.99, kTxnNames[t]), "us");
  }
  rep->Set("tpcc.rollback_pct", s.RollbackPct(), "%");
}

// ---------------------------------------------------------------------------
// Workloads. Each run is kRounds rounds; a round builds its databases from
// the seed (timed: one setup_s sample), warms up, and measures 1/kRounds of
// the run's work. Rounds spread the measurement over time and over fresh
// allocations, and keep TPC-C's growing tables at a third of the size one
// long loop would reach.
// ---------------------------------------------------------------------------

struct Context {
  Args args;
  std::string tmp_dir;  // archives; removed at exit
  Scheduler* sched;
  Report report;
  Outcome out;
  std::vector<double> setup_s;
  double traced_ops = 0, untraced_ops = 0;
};

/// Direct results of one round's fresh database. Round 0's become the
/// expected payloads; later rounds rebuild the same data from the same seed
/// and must reproduce them. Every served result is compared with them, so
/// the printed checksum is that of what the workload served: the same for
/// every workload on one seed, which a reader can compare across runs.
void CheckRoundResults(Context* ctx, int round, const tpch::TpchDatabase& db,
                       std::vector<std::string>* expected) {
  std::vector<std::string> direct = DirectResults(db, ctx->sched, &ctx->out);
  if (round > 0) {
    if (direct != *expected) {
      ctx->out.Fail("round " + std::to_string(round) +
                    " query results differ from round 0 on the same seed");
    }
    return;
  }
  *expected = std::move(direct);
  const uint64_t checksum = Checksum(*expected);
  std::printf("22-query checksum: %016llx\n", (unsigned long long)checksum);
}

/// Work per round: `total` split over the rounds, rounded up.
uint64_t PerRound(uint64_t total) { return (total + kRounds - 1) / kRounds; }

/// Zero-valued per-layer metrics the workload does not exercise, so every
/// traced run reports the same set of names.
void ZeroLayerDefaults(Report* rep) {
  for (int q = 1; q <= kQueries; ++q) {
    char name[32];
    std::snprintf(name, sizeof(name), "tpch.q%02d_ms", q);
    rep->Set(name, 0, "ms");
  }
  for (const char* n : {"tpch.pipeline_ms", "tpch.merge_ms",
                        "tpch.unattributed_ms", "lifecycle.tick_ms"})
    rep->Set(n, 0, "ms");
  for (const char* n :
       {"scan.chunks_scanned", "scan.chunks_pruned", "scan.rows_considered",
        "scan.pins", "exec.tasks_run", "exec.steals", "lifecycle.reloads",
        "lifecycle.evicted_skipped", "storage.archive_reads",
        "serve.queue_ns_inverted"})
    rep->Set(n, 0, "count");
  for (const char* n :
       {"scan.prune_ratio", "scan.batches_coded_ratio", "exec.steal_ratio",
        "datablock.compression_ratio"})
    rep->Set(n, 0, "ratio");
  rep->Set("agg.state_peak_mb", 0, "MB");
  for (const char* n : {"datablock.freeze_s", "tpch.dbgen_s", "tpcc.load_s"})
    rep->Set(n, 0, "s");
  for (int t = 0; t < kTxnTypes; ++t) {
    rep->Set(std::string("tpcc.") + kTxnNames[t] + "_p50_us", 0, "us");
    rep->Set(std::string("tpcc.") + kTxnNames[t] + "_p99_us", 0, "us");
  }
  rep->Set("tpcc.rollback_pct", 0, "%");
  for (const char* n :
       {"serve.admission_wait_p50_ms", "serve.admission_wait_p99_ms",
        "serve.dispatch_p99_ms", "serve.exec_p50_ms", "serve.exec_p99_ms",
        "gen.late_p99_ms"})
    rep->Set(n, 0, "ms");
}

/// Setup-phase medians of the TPC-H rounds.
void ReportTpchSetup(const std::vector<TpchSetup>& rounds, Report* rep) {
  std::vector<double> dbgen, freeze, ratio;
  for (const TpchSetup& s : rounds) {
    dbgen.push_back(s.dbgen_s);
    freeze.push_back(s.freeze_s);
    ratio.push_back(s.compression_ratio);
  }
  rep->Set("datablock.freeze_s", Median(freeze), "s");
  rep->Set("datablock.compression_ratio", Median(ratio), "ratio");
  rep->Set("tpch.dbgen_s", Median(dbgen), "s");
}

void RunOlap(Context* ctx, bool evicted) {
  const double rate = evicted ? kEvictedPassesPerS : kFrozenPassesPerS;
  // Enough passes that >= 10 latencies lie above the tail percentile.
  const int min_passes = int(std::ceil(10 / (1 - kOlapTail) / kQueries));
  const uint64_t passes = PerRound(uint64_t(
      std::max<long>(min_passes, std::lround(rate * ctx->args.seconds))));
  std::vector<std::string> expected;
  std::vector<TpchSetup> setups(kRounds);  // timings only, data is freed
  OlapStats plain, traced;
  for (int round = 0; round < kRounds; ++round) {
    g_tracer.set_on(ctx->args.trace);
    fs::remove_all(ctx->tmp_dir);
    fs::create_directories(ctx->tmp_dir);
    TpchSetup& s = setups[size_t(round)];
    BuildTpchData(&s, ctx->args);
    CheckRoundResults(ctx, round, *s.db, &expected);
    if (evicted) EvictFacts(&s, ctx->tmp_dir);
    ctx->setup_s.push_back(s.dbgen_s + s.freeze_s + s.evict_s);

    serve::ServerConfig scfg;
    scfg.scheduler = ctx->sched;
    serve::Server server(scfg);
    TpchService service(&server, s.db.get(), ctx->sched);
    OlapClient client(&server, &service, &expected, ctx->sched,
                      s.manager_ptrs(), &ctx->out);
    g_tracer.set_on(false);
    client.WarmUp();
    for (uint64_t p = 0; p < passes; ++p) client.Pass(&plain);
    if (ctx->args.trace) {
      g_tracer.set_on(true);
      for (uint64_t p = 0; p < passes; ++p) client.Pass(&traced);
      g_tracer.set_on(false);
    }
    server.Shutdown();
    if (round + 1 == kRounds) {
      const LifeCounts l = LifeCounts::Read(s.manager_ptrs());
      ctx->report.Set(
          "resident_mb",
          double(TablesBytes(TpchTables(*s.db)) + l.summary_bytes) / kMb,
          "MB");
    }
    s.managers.clear();  // restores the evicted blocks, then frees the data
    s.db.reset();
  }
  ReportOlap(plain, &ctx->report);
  if (ctx->args.trace) ReportOlapLayers(traced, &ctx->report);
  ReportTpchSetup(setups, &ctx->report);
  ctx->untraced_ops = Median(plain.pass_qps);
  ctx->traced_ops = Median(traced.pass_qps);
}

/// Samples of htap_mixed's OLTP stream (requests timed from their due
/// time) and its OLAP side.
struct HtapStats {
  TxnSamples txn;       // from due time to response
  TxnSamples txn_exec;  // RunMixedTransaction alone, inside the handler
  std::vector<double> admission_ms, dispatch_ms, exec_ms, late_ms;
  uint64_t inverted = 0;  // responses with queue_ns > total_ns
  OlapStats olap;
};

/// One open-loop OLTP stream of `n` requests at kHtapOltpRate beside the
/// closed-loop OLAP client, which runs until the last OLTP response.
void HtapStream(Context* ctx, serve::Session* oltp, OlapClient* olap,
                uint64_t n, HtapStats* st) {
  struct Sent {
    uint64_t req = 0, due_ns = 0, submit_ns = 0;
    serve::ResponseFuture fut;
  };
  const uint64_t period_ns = uint64_t(1e9 / kHtapOltpRate);
  std::vector<Sent> sent(n);
  std::atomic<bool> oltp_done{false};
  std::thread gen([&] {
    // Request i is due at start + i * period whatever happened to earlier
    // requests; its latency counts from the due time.
    const uint64_t start = NowNs() + 1'000'000;
    for (uint64_t i = 0; i < n; ++i) {
      const uint64_t due = start + i * period_ns;
      const uint64_t now = NowNs();
      if (now < due) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
      }
      Sent& x = sent[i];
      x.req = g_next_req.fetch_add(1);
      x.due_ns = due;
      x.submit_ns = NowNs();
      x.fut = oltp->Call("tpcc.mixed", std::to_string(x.req),
                         serve::Priority::kOltp);
    }
    for (Sent& x : sent) x.fut.Get();
    oltp_done = true;
  });
  while (!oltp_done.load()) olap->Pass(&st->olap, &oltp_done);
  gen.join();
  for (Sent& x : sent) {
    const serve::Response& r = x.fut.Get();
    TraceCall(x.req, x.submit_ns, r,
              r.payload.empty() ? -1 : r.payload[0] - '0');
    if (!ctx->out.Served(r, "tpcc.mixed")) continue;
    if (r.payload.size() != 2 || r.payload[0] < '0' || r.payload[0] > '4') {
      ++ctx->out.failed;
      ctx->out.Fail("tpcc.mixed returned '" + r.payload + "'");
      continue;
    }
    const double late = double(x.submit_ns - x.due_ns) / 1e6;
    st->txn.Add(r.payload[0] - '0', r.payload[1] == 'r',
                late + double(r.total_ns) / 1e6);
    st->late_ms.push_back(late);
    if (r.queue_ns > r.total_ns) {
      ++st->inverted;  // admission clock read before its lock (README)
      continue;
    }
    st->admission_ms.push_back(double(r.queue_ns) / 1e6);
    st->exec_ms.push_back(double(r.exec_ns) / 1e6);
    st->dispatch_ms.push_back(double(r.total_ns - r.queue_ns - r.exec_ns) /
                              1e6);
  }
}

void RunHtap(Context* ctx) {
  // At least 30000 requests, so each 4% transaction type has >= 10 samples
  // above its p99.
  const uint64_t n = PerRound(std::max<uint64_t>(
      30000, uint64_t(std::llround(kHtapTxnsPerS * ctx->args.seconds))));
  std::vector<std::string> expected;
  std::vector<TpchSetup> setups(kRounds);
  std::vector<double> load_s(kRounds);
  HtapStats plain, traced;
  for (int round = 0; round < kRounds; ++round) {
    g_tracer.set_on(ctx->args.trace);
    const uint64_t t0 = NowNs();
    TpchSetup& s = setups[size_t(round)];
    BuildTpchData(&s, ctx->args);
    auto db = LoadTpcc(ctx->args, &load_s[size_t(round)]);
    ctx->setup_s.push_back(double(NowNs() - t0) / 1e9);
    CheckRoundResults(ctx, round, *s.db, &expected);

    serve::ServerConfig scfg;
    scfg.scheduler = ctx->sched;
    // Room for every OLTP request due during the longest OLAP stall: the
    // open loop keeps arriving, and a refused request would be a failure.
    scfg.admission.max_queued = 4096;
    serve::Server server(scfg);
    TpchService service(&server, s.db.get(), ctx->sched);
    // TPC-C transactions are single-threaded: the handler serializes them
    // on a commit mutex, as bench_serve does.
    std::mutex commit_mu;
    Rng rng(SubSeed(ctx->args.seed, 3));
    HtapStats* recording = nullptr;  // guarded by commit_mu
    server.RegisterHandler("tpcc.mixed", [&](std::string_view args) {
      const uint64_t req =
          std::strtoull(std::string(args).c_str(), nullptr, 10);
      std::lock_guard<std::mutex> lock(commit_mu);
      const uint64_t a = NowNs();
      bool rolled_back = false;
      const int type = RunTxn(*db, rng, &rolled_back);
      const uint64_t b = g_tracer.Close("tpcc.txn", a, req, req * 8 + 3, type);
      if (recording != nullptr) {
        recording->txn_exec.Add(type, rolled_back, double(b - a) / 1e6);
      }
      return std::string{char('0' + type), rolled_back ? 'r' : 'c'};
    });
    OlapClient olap(&server, &service, &expected, ctx->sched, {}, &ctx->out);
    auto oltp = server.OpenSession("oltp", serve::Priority::kOltp);
    g_tracer.set_on(false);
    olap.WarmUp();
    for (int i = 0; i < 500; ++i) {
      ctx->out.Served(oltp->Call("tpcc.mixed", "0").Get(), "tpcc warm-up");
    }
    for (HtapStats* st : {&plain, &traced}) {
      if (st == &traced && !ctx->args.trace) break;
      g_tracer.set_on(st == &traced);
      {
        std::lock_guard<std::mutex> lock(commit_mu);
        recording = st;
      }
      HtapStream(ctx, oltp.get(), &olap, n, st);
    }
    g_tracer.set_on(false);
    oltp->Close();
    server.Shutdown();
    std::string msg;
    if (!db->CheckConsistency(&msg)) {
      ctx->out.Fail("TPC-C consistency: " + msg);
    }
    if (round + 1 == kRounds) {
      ctx->report.Set("resident_mb",
                      double(TablesBytes(TpchTables(*s.db)) +
                             TablesBytes(TpccTables(*db))) /
                          kMb,
                      "MB");
    }
    s.db.reset();
  }
  if (plain.olap.pass_qps.empty()) {
    throw std::runtime_error("no OLAP pass completed beside the OLTP stream");
  }
  ctx->report.Set("ops_per_s", Median(plain.olap.pass_qps), "1/s");
  ReportTxn(plain.txn, &ctx->report);
  ctx->untraced_ops = Median(plain.olap.pass_qps);
  ctx->traced_ops = Median(traced.olap.pass_qps);
  if (ctx->args.trace) {
    ReportOlapLayers(traced.olap, &ctx->report);
    ReportTxnLayers(traced.txn_exec, &ctx->report);
    Report& rep = ctx->report;
    rep.Set("serve.admission_wait_p50_ms", Median(traced.admission_ms), "ms");
    rep.Set("serve.admission_wait_p99_ms",
            Tail(traced.admission_ms, 0.99, "admission wait"), "ms");
    rep.Set("serve.dispatch_p99_ms",
            Tail(traced.dispatch_ms, 0.99, "dispatch"), "ms");
    rep.Set("serve.exec_p50_ms", Median(traced.exec_ms), "ms");
    rep.Set("serve.exec_p99_ms", Tail(traced.exec_ms, 0.99, "exec"), "ms");
    rep.Set("serve.queue_ns_inverted", double(traced.inverted), "count");
    rep.Set("gen.late_p99_ms", Tail(traced.late_ms, 0.99, "generator lateness"),
            "ms");
  }
  ReportTpchSetup(setups, &ctx->report);
  ctx->report.Set("tpcc.load_s", Median(load_s), "s");
}

}  // namespace

int main(int argc, char** argv) {
  Context ctx;
  ctx.args = ParseArgs(argc, argv);
  fs::create_directories(ctx.args.out_dir);
  ctx.tmp_dir = (fs::path(ctx.args.out_dir) /
                 ("tmp-" + ctx.args.workload + "-" + std::to_string(::getpid())))
                    .string();
  Scheduler::Options so;
  so.num_workers = kWorkers;
  so.pin_workers = false;
  Scheduler sched(so);
  ctx.sched = &sched;
  if (ctx.args.trace) ZeroLayerDefaults(&ctx.report);

  std::printf("workload %s, seed %llu, %d s, trace %d, SF %g\n",
              ctx.args.workload.c_str(), (unsigned long long)ctx.args.seed,
              ctx.args.seconds, int(ctx.args.trace), kScaleFactor);
  int rc = 0;
  try {
    if (ctx.args.workload == "olap_frozen") RunOlap(&ctx, false);
    if (ctx.args.workload == "olap_evicted") RunOlap(&ctx, true);
    if (ctx.args.workload == "htap_mixed") RunHtap(&ctx);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "htap_bench: %s\n", e.what());
    rc = 1;
  }
  fs::remove_all(ctx.tmp_dir);
  if (rc != 0) return rc;

  Report& rep = ctx.report;
  rep.Set("setup_s", Median(ctx.setup_s), "s");
  rep.Set("rss_peak_mb", PeakRssMb(), "MB");
  if (ctx.args.trace) {
    rep.Set("trace.untraced_ops_per_s", ctx.untraced_ops, "1/s");
    rep.Set("trace.ops_per_s_delta", ctx.traced_ops - ctx.untraced_ops, "1/s");
  }
  rep.PrintTable();
  const bool correct = ctx.out.errors.empty();
  if (ctx.args.trace) {
    g_tracer.Dump((fs::path(ctx.args.out_dir) /
                   ("spans-" + ctx.args.workload + ".csv"))
                      .string(),
                  rep.MetricsJson());
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      correct ? "true" : "false", (unsigned long long)ctx.out.attempted,
      (unsigned long long)ctx.out.failed, rep.MetricsJson().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
