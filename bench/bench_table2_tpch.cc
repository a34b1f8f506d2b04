// Table 2 / Table 4 (Appendix F): runtimes of all 22 TPC-H queries under
// the six scan configurations of the paper, plus sum and geometric mean.
//
//   JIT         tuple-at-a-time scan, uncompressed
//   VEC         vectorized scan, uncompressed, no SARG pushdown
//   +SARG       vectorized scan, uncompressed, SARG pushdown (SIMD)
//   DB          vectorized Data Block scan, predicates in the pipeline
//   +SARG/SMA   Data Block scan with SARG pushdown and SMA skipping
//   +PSMA       +SARG/SMA with PSMA range narrowing
//
// Usage: bench_table2_tpch [--queries 1,6] [--threads N] [--shards N]
//        [--profile] [--profile-json out.json] [scale_factor] [repetitions]
//
// --profile attaches an execution profile (obs/query_profile.h) to every
// measured run and prints the per-query EXPLAIN-ANALYZE-style report for
// the +PSMA config; --profile-json collects the profile JSON objects into
// a file for tools/profile_report.py.
//
// --queries restricts the run to a comma-separated query subset (the CI
// perf-regression job measures Q1/Q6 only). --threads N runs every query's
// fact-table pipelines through the shared scheduler worker pool with N
// parallelism slots (default 1 = the sequential reference path, 0 = all
// hardware threads); the thread count is recorded in the --json output,
// along with the peak aggregation-state bytes per measurement. --shards N
// hash-shards the fact tables (lineitem + orders on orderkey) across N
// independent engine instances and runs every fact-table pipeline over
// the shard tables (exec/shard.h). The final
// "result checksum" line fingerprints every (query, config) result and is
// identical across thread AND shard counts by the parallel-determinism
// contract — the bench-smoke CI job asserts exactly that.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "exec/partitioned_agg.h"
#include "obs/query_profile.h"
#include "tpch/queries.h"
#include "util/cpu.h"
#include "util/timer.h"

#include "bench_common.h"

using namespace datablocks;
using namespace datablocks::tpch;

namespace {

struct Measurement {
  double best;    // best-of-reps (the printed tables use this)
  double median;  // median-of-reps (the JSON harness uses this)
  double state_peak_bytes;  // peak aggregation-state bytes of one run
  uint64_t checksum;        // FNV over the result rows (thread-invariant)
  std::string report;       // --profile: last rep's execution profile
};

uint64_t ResultChecksum(const QueryResult& result) {
  uint64_t h = 1469598103934665603ull;  // FNV-1a over rows + separators
  for (const std::string& row : result.rows) {
    for (char c : row) h = (h ^ uint8_t(c)) * 1099511628211ull;
    h = (h ^ uint8_t('\n')) * 1099511628211ull;
  }
  return h;
}

Measurement MeasureSeconds(int q, const TpchDatabase& db, ScanMode mode,
                           const char* config, int reps, unsigned threads,
                           const ShardSet* shards) {
  std::vector<double> samples;
  double best = 1e30;
  uint64_t checksum = 0;
  std::string report;
  aggstate::ResetPeaks();
  for (int r = 0; r < reps; ++r) {
    // With --profile, EVERY measured run of EVERY config carries a live
    // profile — so profiled-vs-unprofiled comparisons (the CI overhead
    // guard) measure instrumentation cost, not a config mix.
    std::unique_ptr<obs::QueryProfile> profile;
    if (BenchProfile().enabled) {
      char qname[8];
      std::snprintf(qname, sizeof(qname), "Q%d", q);
      profile = std::make_unique<obs::QueryProfile>(
          qname, config, threads,
          shards != nullptr ? shards->num_shards() : 1);
    }
    Timer t;
    QueryResult result =
        RunQuery(q, db,
                 ScanOptions{.mode = mode,
                             .ctx = {.threads = threads,
                                     .profile = profile.get(),
                                     .shards = shards}});
    samples.push_back(t.ElapsedSeconds());
    best = std::min(best, samples.back());
    checksum = result.rows.empty() ? 1 : ResultChecksum(result);
    if (result.rows.empty() && q != 15 && q != 2) {
      // Only a handful of queries may legitimately return few rows; an
      // empty result elsewhere would make the timing meaningless.
      std::fprintf(stderr, "warning: Q%d returned no rows\n", q);
    }
    if (profile != nullptr && r == reps - 1) {
      report = profile->Report();
      BenchProfileRecord(profile->ToJson());
    }
  }
  return {best, BenchMedian(samples),
          double(aggstate::GetStats().peak_total_bytes), checksum,
          std::move(report)};
}

/// Strips `--queries a,b,...` / `--queries=a,b,...` from argv. Returns the
/// selected queries, defaulting to all 22.
std::vector<int> ParseQueries(int* argc, char** argv) {
  std::vector<int> queries;
  const char* list = nullptr;
  int w = 1;
  for (int r = 1; r < *argc; ++r) {
    if (std::strcmp(argv[r], "--queries") == 0 && r + 1 < *argc) {
      list = argv[++r];
      continue;
    }
    if (std::strncmp(argv[r], "--queries=", 10) == 0) {
      list = argv[r] + 10;
      continue;
    }
    argv[w++] = argv[r];
  }
  *argc = w;
  if (list != nullptr) {
    for (const char* p = list; *p != '\0';) {
      char* end;
      long q = std::strtol(p, &end, 10);
      if (end == p || q < 1 || q > 22) {
        std::fprintf(stderr, "bad --queries list: %s\n", list);
        std::exit(1);
      }
      queries.push_back(int(q));
      p = *end == ',' ? end + 1 : end;
    }
  }
  if (queries.empty()) {
    for (int q = 1; q <= 22; ++q) queries.push_back(q);
  }
  return queries;
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = BenchQuickMode(&argc, argv);
  BenchJsonMode(&argc, argv, quick);
  const bool profiling = BenchProfileMode(&argc, argv);
  const unsigned threads = BenchThreadsFlag(&argc, argv);
  const unsigned num_shards = BenchShardsFlag(&argc, argv);
  const std::vector<int> queries = ParseQueries(&argc, argv);
  TpchConfig cfg;
  cfg.scale_factor = BenchFinishArgs(
      argc, argv,
      "bench_table2_tpch [--quick] [--json out] [--queries 1,6] "
      "[--threads N] [--shards N] [--profile] [--profile-json out] "
      "[scale_factor] [repetitions]",
      quick ? 0.02 : 0.2);
  const int reps = argc > 2 ? atoi(argv[2]) : (quick ? 1 : 2);

  std::printf("generating TPC-H SF %.2f (hot + frozen instances)...\n",
              cfg.scale_factor);
  Timer gen;
  auto hot = MakeTpch(cfg);
  auto frozen = MakeTpch(cfg);
  // Shard sets snapshot the sources, so build the frozen one BEFORE the
  // freeze (cheap hot-chunk reads), then freeze shards alongside sources.
  std::unique_ptr<ShardSet> hot_shards, frozen_shards;
  if (num_shards > 1) {
    hot_shards = std::make_unique<ShardSet>(BuildTpchShards(*hot, num_shards));
    frozen_shards =
        std::make_unique<ShardSet>(BuildTpchShards(*frozen, num_shards));
    frozen_shards->FreezeAll();
  }
  frozen->FreezeAll();
  std::printf("generated in %.1f s; lineitem rows = %llu%s\n\n",
              gen.ElapsedSeconds(),
              (unsigned long long)hot->lineitem.num_rows(),
              num_shards > 1 ? " (fact tables sharded)" : "");

  struct Config {
    const char* name;
    const TpchDatabase* db;
    ScanMode mode;
    const ShardSet* shards;
  };
  const Config configs[6] = {
      {"JIT", hot.get(), ScanMode::kJit, hot_shards.get()},
      {"VEC", hot.get(), ScanMode::kVectorized, hot_shards.get()},
      {"+SARG", hot.get(), ScanMode::kVectorizedSarg, hot_shards.get()},
      {"DB", frozen.get(), ScanMode::kVectorized, frozen_shards.get()},
      {"+SARG/SMA", frozen.get(), ScanMode::kDataBlocks, frozen_shards.get()},
      {"+PSMA", frozen.get(), ScanMode::kDataBlocksPsma, frozen_shards.get()},
  };

  std::printf(
      "=== Table 2 / Table 4: TPC-H SF %.2f, %u thread%s, %u shard%s, "
      "seconds per query ===\n",
      cfg.scale_factor, threads == 0 ? cpu::HardwareThreads() : threads,
      (threads == 0 ? cpu::HardwareThreads() : threads) == 1 ? "" : "s",
      num_shards, num_shards == 1 ? "" : "s");
  std::printf("      %10s %10s %10s | %10s %10s %10s %9s\n", "JIT", "VEC",
              "+SARG", "DB", "+SARG/SMA", "+PSMA", "PSMA/JIT");
  const double lineitem_rows = double(hot->lineitem.num_rows());
  double sum[6] = {0};
  double logsum[6] = {0};
  // Combined checksum of every (query, config) result: bit-identical
  // between --threads 1 and --threads N by the parallel-determinism
  // contract — the bench-smoke CI job asserts exactly that.
  uint64_t checksum = 1469598103934665603ull;
  double state_peak_max = 0;
  std::vector<std::string> reports;  // --profile: +PSMA profile per query
  for (int q : queries) {
    double secs[6];
    double state_peak = 0;
    for (int c = 0; c < 6; ++c) {
      Measurement m = MeasureSeconds(q, *configs[c].db, configs[c].mode,
                                     configs[c].name, reps, threads,
                                     configs[c].shards);
      secs[c] = m.best;
      sum[c] += secs[c];
      logsum[c] += std::log(secs[c]);
      state_peak = std::max(state_peak, m.state_peak_bytes);
      checksum = HashCombine(checksum, m.checksum);
      BenchJsonRecord("tpch_q" + std::to_string(q), configs[c].name,
                      m.median * 1e9, lineitem_rows / m.median,
                      m.state_peak_bytes);
      // The +PSMA config exercises every scan feature (SARG, SMA skipping,
      // PSMA narrowing, compressed blocks) — its report is the one worth
      // reading, so it is the one printed.
      if (profiling && c == 5) reports.push_back(std::move(m.report));
    }
    state_peak_max = std::max(state_peak_max, state_peak);
    std::printf(
        "Q%-4d %9.3fs %9.3fs %9.3fs | %9.3fs %9.3fs %9.3fs %8.2fx "
        "agg %.1f MB\n",
        q, secs[0], secs[1], secs[2], secs[3], secs[4], secs[5],
        secs[0] / secs[5], state_peak / 1e6);
  }
  if (profiling) {
    std::printf("\n=== execution profiles (+PSMA config, last rep) ===\n");
    for (const std::string& report : reports) {
      std::printf("%s\n", report.c_str());
    }
  }
  std::printf("----\n%-5s", "sum");
  for (int c = 0; c < 6; ++c) std::printf(" %9.3fs", sum[c]);
  std::printf("\n%-5s", "geo");
  double geo[6];
  for (int c = 0; c < 6; ++c) {
    geo[c] = std::exp(logsum[c] / double(queries.size()));
    std::printf(" %9.3fs", geo[c]);
  }
  std::printf("\n\ngeometric-mean speedup over JIT scans:\n");
  for (int c = 0; c < 6; ++c)
    std::printf("  %-10s %6.2fx\n", configs[c].name, geo[0] / geo[c]);

  std::printf("\ncompressed/uncompressed size: %.1f MB / %.1f MB (%.2fx)\n",
              double(frozen->TotalBytes()) / 1e6,
              double(hot->TotalBytes()) / 1e6,
              double(hot->TotalBytes()) / double(frozen->TotalBytes()));
  std::printf("peak aggregation state: %.1f MB (partitioned: one dense "
              "state regardless of --threads)\n",
              state_peak_max / 1e6);
  std::printf("result checksum: %016llx\n", (unsigned long long)checksum);
  return 0;
}
