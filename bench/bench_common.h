#ifndef DATABLOCKS_BENCH_BENCH_COMMON_H_
#define DATABLOCKS_BENCH_BENCH_COMMON_H_

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "exec/partitioned_agg.h"
#include "obs/metrics.h"

// Shared flag handling for the bench binaries. Every benchmark accepts
// `--quick` (anywhere on the command line): workloads shrink to smoke-test
// sizes so CI can launch each binary and catch bit-rot. Quick-mode numbers
// are NOT meaningful reproductions of the paper's figures.
//
// BenchQuickMode strips `--quick` from argv so positional arguments keep
// working (e.g. `bench_table2_tpch --quick 0.01 1`).
inline bool BenchQuickMode(int* argc, char** argv) {
  bool quick = false;
  int w = 1;
  for (int r = 1; r < *argc; ++r) {
    if (std::strcmp(argv[r], "--quick") == 0) {
      quick = true;
      continue;
    }
    argv[w++] = argv[r];
  }
  *argc = w;
  if (quick) {
    std::printf(
        "[--quick] smoke-test sizes; timings are not paper-comparable\n");
  }
  return quick;
}

// Argv for google-benchmark binaries: in quick mode a tiny
// --benchmark_min_time is spliced in so every registered benchmark still
// runs, just briefly. Pass `args.size() - 1` (the trailing nullptr) as argc
// to benchmark::Initialize.
inline std::vector<char*> QuickBenchArgs(int argc, char** argv, bool quick) {
  static char min_time[] = "--benchmark_min_time=0.005";
  std::vector<char*> args(argv, argv + argc);
  if (quick) args.insert(args.begin() + 1, min_time);
  args.push_back(nullptr);
  return args;
}

// ---------------------------------------------------------------------------
// --json <path>: machine-readable results for the CI perf-regression
// harness. The curated benches (fig8, fig9, table2, table3) record one
// entry per (name, config) measurement; tools/bench_compare.py diffs two
// such files and flags >threshold regressions. Human-readable stdout output
// is unchanged — the JSON file is written on top of it, at process exit.
// ---------------------------------------------------------------------------

struct BenchJsonEntry {
  std::string name;       // what was measured, e.g. "tpch_q6"
  std::string config;     // variant, e.g. "+PSMA" or "AVX2"
  double median_ns_op;    // median nanoseconds per operation
  double rows_per_s;      // throughput (rows, tuples or lookups per second)
  // Peak aggregation-state bytes held by the partitioned-aggregation
  // engine during the measurement (exec/partitioned_agg.h accounting);
  // < 0 = not recorded. Makes the O(rows) dense-state guarantee visible
  // in the perf artifacts.
  double state_peak_bytes = -1;
};

struct BenchJsonState {
  std::string path;
  std::string bench;
  bool quick = false;
  unsigned threads = 1;  // recorded by BenchThreadsFlag
  unsigned shards = 1;   // recorded by BenchShardsFlag
  std::vector<BenchJsonEntry> entries;
};

inline BenchJsonState& BenchJson() {
  static BenchJsonState state;
  return state;
}

inline void BenchJsonFlush() {
  BenchJsonState& s = BenchJson();
  if (s.path.empty()) return;
  std::FILE* f = std::fopen(s.path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench: cannot write %s\n", s.path.c_str());
    std::exit(1);
  }
  auto escape = [](const std::string& in) {
    std::string out;
    for (char c : in) {
      if (c == '"' || c == '\\') out.push_back('\\');
      out.push_back(c);
    }
    return out;
  };
  std::fprintf(f,
               "{\n  \"bench\": \"%s\",\n  \"quick\": %s,\n"
               "  \"threads\": %u,\n  \"shards\": %u,\n  \"results\": [",
               escape(s.bench).c_str(), s.quick ? "true" : "false",
               s.threads, s.shards);
  for (size_t i = 0; i < s.entries.size(); ++i) {
    const BenchJsonEntry& e = s.entries[i];
    std::fprintf(f,
                 "%s\n    {\"name\": \"%s\", \"config\": \"%s\", "
                 "\"median_ns_op\": %.6g, \"rows_per_s\": %.6g",
                 i == 0 ? "" : ",", escape(e.name).c_str(),
                 escape(e.config).c_str(), e.median_ns_op, e.rows_per_s);
    if (e.state_peak_bytes >= 0) {
      std::fprintf(f, ", \"state_peak_bytes\": %.6g", e.state_peak_bytes);
    }
    std::fprintf(f, "}");
  }
  // Process-wide metrics snapshot (obs/metrics.h). RegisterEngineMetrics
  // pre-registers every engine metric so the section has a stable set of
  // names (untouched ones read 0); the aggregation-state gauges are
  // exported here since they are pull-based.
  datablocks::obs::RegisterEngineMetrics();
  datablocks::aggstate::ExportGauges();
  std::fprintf(f, "\n  ],\n  \"metrics\": %s\n}\n",
               datablocks::obs::MetricsRegistry::Default().ToJson().c_str());
  std::fclose(f);
  std::printf("[--json] wrote %zu results to %s\n", s.entries.size(),
              s.path.c_str());
}

/// Parses and strips `--json <path>` (or `--json=<path>`) from argv.
/// Returns true when JSON output is enabled; the file is written at process
/// exit. `quick` is recorded so the comparer can refuse to diff quick-mode
/// numbers against full-mode numbers.
inline bool BenchJsonMode(int* argc, char** argv, bool quick) {
  BenchJsonState& s = BenchJson();
  int w = 1;
  for (int r = 1; r < *argc; ++r) {
    if (std::strcmp(argv[r], "--json") == 0 && r + 1 < *argc) {
      s.path = argv[++r];
      continue;
    }
    if (std::strncmp(argv[r], "--json=", 7) == 0) {
      s.path = argv[r] + 7;
      continue;
    }
    argv[w++] = argv[r];
  }
  *argc = w;
  if (s.path.empty()) return false;
  const char* base = std::strrchr(argv[0], '/');
  s.bench = base != nullptr ? base + 1 : argv[0];
  s.quick = quick;
  // Construct the registry static BEFORE registering the exit handler:
  // function-local statics are destroyed in reverse construction order
  // interleaved with atexit callbacks, so a registry first touched during
  // the run would be torn down before the flush that reads it.
  datablocks::obs::RegisterEngineMetrics();
  std::atexit(BenchJsonFlush);
  return true;
}

inline void BenchJsonRecord(std::string name, std::string config,
                            double median_ns_op, double rows_per_s,
                            double state_peak_bytes = -1) {
  BenchJsonState& s = BenchJson();
  if (s.path.empty()) return;
  s.entries.push_back(BenchJsonEntry{std::move(name), std::move(config),
                                     median_ns_op, rows_per_s,
                                     state_peak_bytes});
}

// ---------------------------------------------------------------------------
// --profile: per-query execution profiles (obs/query_profile.h). Benches
// that support it attach a fresh QueryProfile to every measured run and
// print an EXPLAIN-ANALYZE-style report for the most interesting config.
// `--profile-json <path>` additionally collects one profile JSON object
// per (name, config) — the last measured repetition — into a single file
// for tools/profile_report.py (which also validates the schema in CI).
// ---------------------------------------------------------------------------

struct BenchProfileState {
  bool enabled = false;
  std::string bench;
  std::string json_path;
  std::vector<std::string> profiles;  // QueryProfile::ToJson() objects
};

inline BenchProfileState& BenchProfile() {
  static BenchProfileState state;
  return state;
}

inline void BenchProfileFlush() {
  BenchProfileState& s = BenchProfile();
  if (s.json_path.empty()) return;
  std::FILE* f = std::fopen(s.json_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench: cannot write %s\n", s.json_path.c_str());
    std::exit(1);
  }
  std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"profiles\": [", s.bench.c_str());
  for (size_t i = 0; i < s.profiles.size(); ++i) {
    std::fprintf(f, "%s\n    %s", i == 0 ? "" : ",", s.profiles[i].c_str());
  }
  std::fprintf(f, "\n  ]\n}\n");
  std::fclose(f);
  std::printf("[--profile-json] wrote %zu profiles to %s\n",
              s.profiles.size(), s.json_path.c_str());
}

/// Parses and strips `--profile` and `--profile-json <path>` (or
/// `--profile-json=<path>`; implies --profile) from argv. Returns true
/// when profiling is enabled.
inline bool BenchProfileMode(int* argc, char** argv) {
  BenchProfileState& s = BenchProfile();
  int w = 1;
  for (int r = 1; r < *argc; ++r) {
    if (std::strcmp(argv[r], "--profile") == 0) {
      s.enabled = true;
      continue;
    }
    if (std::strcmp(argv[r], "--profile-json") == 0 && r + 1 < *argc) {
      s.enabled = true;
      s.json_path = argv[++r];
      continue;
    }
    if (std::strncmp(argv[r], "--profile-json=", 15) == 0) {
      s.enabled = true;
      s.json_path = argv[r] + 15;
      continue;
    }
    argv[w++] = argv[r];
  }
  *argc = w;
  if (!s.enabled) return false;
  const char* base = std::strrchr(argv[0], '/');
  s.bench = base != nullptr ? base + 1 : argv[0];
  if (!s.json_path.empty()) std::atexit(BenchProfileFlush);
  return true;
}

inline void BenchProfileRecord(std::string profile_json) {
  BenchProfileState& s = BenchProfile();
  if (s.json_path.empty()) return;
  s.profiles.push_back(std::move(profile_json));
}

/// Parses and strips `--threads N` (or `--threads=N`) from argv — the
/// shared knob of every bench that can run its pipelines through the
/// scheduler's worker pool. Returns the requested thread count (default 1:
/// the sequential reference path; 0 = all hardware threads) and records it
/// for the `--json` output so the perf harness never diffs runs of
/// different parallelism.
inline unsigned BenchThreadsFlag(int* argc, char** argv) {
  unsigned threads = 1;
  const char* value = nullptr;
  int w = 1;
  for (int r = 1; r < *argc; ++r) {
    if (std::strcmp(argv[r], "--threads") == 0) {
      if (r + 1 >= *argc) {
        std::fprintf(stderr, "--threads requires a value\n");
        std::exit(1);
      }
      value = argv[++r];
      continue;
    }
    if (std::strncmp(argv[r], "--threads=", 10) == 0) {
      value = argv[r] + 10;
      continue;
    }
    argv[w++] = argv[r];
  }
  *argc = w;
  if (value != nullptr) {
    char* end;
    long n = std::strtol(value, &end, 10);
    if (end == value || *end != '\0' || n < 0) {
      std::fprintf(stderr, "bad --threads value: %s\n", value);
      std::exit(1);
    }
    threads = unsigned(n);
  }
  BenchJson().threads = threads;
  return threads;
}

/// Parses and strips `--shards N` (or `--shards=N`) from argv — the
/// shard-parallel knob (exec/shard.h) of benches that can run fact-table
/// pipelines over partitioned engine instances. Returns the requested
/// shard count (default 1: single-table execution) and records it for the
/// `--json` output so the perf harness never diffs runs of different
/// sharding.
inline unsigned BenchShardsFlag(int* argc, char** argv) {
  unsigned shards = 1;
  const char* value = nullptr;
  int w = 1;
  for (int r = 1; r < *argc; ++r) {
    if (std::strcmp(argv[r], "--shards") == 0) {
      if (r + 1 >= *argc) {
        std::fprintf(stderr, "--shards requires a value\n");
        std::exit(1);
      }
      value = argv[++r];
      continue;
    }
    if (std::strncmp(argv[r], "--shards=", 9) == 0) {
      value = argv[r] + 9;
      continue;
    }
    argv[w++] = argv[r];
  }
  *argc = w;
  if (value != nullptr) {
    char* end;
    long n = std::strtol(value, &end, 10);
    if (end == value || *end != '\0' || n < 1) {
      std::fprintf(stderr, "bad --shards value: %s\n", value);
      std::exit(1);
    }
    shards = unsigned(n);
  }
  BenchJson().shards = shards;
  return shards;
}

/// The last step of argument parsing, after every flag parser above
/// stripped its own flags: exits 2 with `usage` on any leftover `--...`
/// argument (an unknown flag, `--help` included) and, when the bench
/// takes a positional scale factor (`default_sf` > 0), on an argv[1] that
/// is not a number > 0. Returns that scale factor, `default_sf` when none
/// was given.
inline double BenchFinishArgs(int argc, char** argv, const char* usage,
                              double default_sf = 0) {
  const char* bad = nullptr;
  for (int i = 1; i < argc && bad == nullptr; ++i) {
    if (std::strncmp(argv[i], "--", 2) == 0) bad = argv[i];
  }
  double sf = default_sf;
  if (bad == nullptr && default_sf > 0 && argc > 1) {
    char* end;
    sf = std::strtod(argv[1], &end);
    if (end == argv[1] || *end != '\0' || !(sf > 0) || !std::isfinite(sf)) {
      bad = argv[1];
    }
  }
  if (bad != nullptr) {
    std::fprintf(stderr, "bad argument: %s\nusage: %s\n", bad, usage);
    std::exit(2);
  }
  return sf;
}

/// Median of a sample vector (scrambles the input order).
inline double BenchMedian(std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  std::nth_element(samples.begin(), samples.begin() + samples.size() / 2,
                   samples.end());
  double hi = samples[samples.size() / 2];
  if (samples.size() % 2 == 1) return hi;
  std::nth_element(samples.begin(),
                   samples.begin() + samples.size() / 2 - 1, samples.end());
  return (hi + samples[samples.size() / 2 - 1]) / 2.0;
}

#endif  // DATABLOCKS_BENCH_BENCH_COMMON_H_
