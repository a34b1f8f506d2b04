#ifndef DATABLOCKS_TPCH_QUERIES_H_
#define DATABLOCKS_TPCH_QUERIES_H_

#include <algorithm>
#include <cstdio>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "exec/parallel_scan.h"
#include "exec/partitioned_agg.h"
#include "exec/shard.h"
#include "exec/table_scanner.h"
#include "obs/query_profile.h"
#include "tpch/tpch_db.h"

namespace datablocks::tpch {

/// Execution knobs of one query run. `threads == 1` runs every fact-table
/// scan+aggregate pipeline as one slot on the caller's thread (the
/// sequential reference); anything else fans it out over the shared worker
/// pool with one state per parallelism slot and a deterministic merge
/// (results are identical to the sequential path by construction — every
/// accumulation is exact and merged in slot order). `threads == 0` means
/// "all hardware threads".
struct QueryContext {
  unsigned threads = 1;
  /// Worker pool for the parallel pipelines; nullptr = the process-wide
  /// Scheduler::Default().
  Scheduler* scheduler = nullptr;
  /// When set, every scan+aggregate pipeline the query runs records an
  /// execution profile (obs/query_profile.h) into it: wall time, rows
  /// in/out, morsel/batch counts, block pruning, pins, archive reloads,
  /// per-worker slices. nullptr = profiling off (one branch per pipeline).
  obs::QueryProfile* profile = nullptr;
  /// When set, fact-table pipelines whose table has a sharded view in the
  /// set scan the per-shard engine instances (exec/shard.h) instead of
  /// the table, with shard-affine morsel claiming. Results stay
  /// bit-identical to the unsharded engine (exact accumulation,
  /// order-independent merges). nullptr = single-table execution.
  const ShardSet* shards = nullptr;
};

/// Scan configuration under which a query runs; every paper configuration
/// (Table 2 / Table 4 columns) is one ScanOptions value.
struct ScanOptions {
  ScanMode mode = ScanMode::kDataBlocksPsma;
  uint32_t vector_size = TableScanner::kDefaultVectorSize;
  Isa isa = BestIsa();
  QueryContext ctx{};

  TableScanner Scan(const Table& table, std::vector<uint32_t> cols,
                    std::vector<Predicate> preds = {}) const {
    return TableScanner(table, std::move(cols), std::move(preds), mode,
                        vector_size, isa);
  }
};

/// Result rows, already formatted and ordered like the SQL output; equal
/// results across scan modes must compare equal.
struct QueryResult {
  std::vector<std::string> rows;

  bool operator==(const QueryResult& o) const { return rows == o.rows; }
  std::string ToString() const {
    std::string s;
    for (const auto& r : rows) {
      s += r;
      s += '\n';
    }
    return s;
  }
};

// The 22 TPC-H queries (validation parameters), hand-fused against the
// vectorized scan interface. SARGable restrictions are pushed into the
// scans — including IN lists and prefix LIKE patterns, which code-space
// scans on frozen blocks translate to dictionary codes / code ranges.
// Non-prefix LIKE and cross-column predicates run in the pipeline,
// memoized per dictionary code where the column is code-carrying
// (exec/dict_memo.h).
QueryResult Q1(const TpchDatabase& db, const ScanOptions& opt);   // pricing summary report
QueryResult Q2(const TpchDatabase& db, const ScanOptions& opt);   // minimum cost supplier
QueryResult Q3(const TpchDatabase& db, const ScanOptions& opt);   // shipping priority (top 10)
QueryResult Q4(const TpchDatabase& db, const ScanOptions& opt);   // order priority checking
QueryResult Q5(const TpchDatabase& db, const ScanOptions& opt);   // local supplier volume
QueryResult Q6(const TpchDatabase& db, const ScanOptions& opt);   // forecasting revenue change
QueryResult Q7(const TpchDatabase& db, const ScanOptions& opt);   // volume shipping
QueryResult Q8(const TpchDatabase& db, const ScanOptions& opt);   // national market share
QueryResult Q9(const TpchDatabase& db, const ScanOptions& opt);   // product type profit
QueryResult Q10(const TpchDatabase& db, const ScanOptions& opt);  // returned items (top 20)
QueryResult Q11(const TpchDatabase& db, const ScanOptions& opt);  // important stock
QueryResult Q12(const TpchDatabase& db, const ScanOptions& opt);  // shipping modes / priority
QueryResult Q13(const TpchDatabase& db, const ScanOptions& opt);  // customer distribution
QueryResult Q14(const TpchDatabase& db, const ScanOptions& opt);  // promotion effect
QueryResult Q15(const TpchDatabase& db, const ScanOptions& opt);  // top supplier
QueryResult Q16(const TpchDatabase& db, const ScanOptions& opt);  // parts/supplier relationship
QueryResult Q17(const TpchDatabase& db, const ScanOptions& opt);  // small-quantity revenue
QueryResult Q18(const TpchDatabase& db, const ScanOptions& opt);  // large volume customers
QueryResult Q19(const TpchDatabase& db, const ScanOptions& opt);  // discounted revenue (OR clauses)
QueryResult Q20(const TpchDatabase& db, const ScanOptions& opt);  // potential part promotion
QueryResult Q21(const TpchDatabase& db, const ScanOptions& opt);  // suppliers who kept orders waiting
QueryResult Q22(const TpchDatabase& db, const ScanOptions& opt);  // global sales opportunity

/// Runs TPC-H query `q` (1-based). Aborts on out-of-range q.
QueryResult RunQuery(int q, const TpchDatabase& db, const ScanOptions& opt);

namespace detail {

/// Drains a scanner, invoking fn(batch) per non-empty batch.
template <typename Fn>
void ScanLoop(TableScanner scanner, Fn fn) {
  Batch batch;
  while (scanner.Next(&batch)) fn(batch);
}

/// One pipeline over `table`: the tables it scans — the table's shards
/// when the context carries a sharded view of it, else the table itself
/// as a one-element span — and its profile (nullptr when profiling is
/// off), whose wall time it stamps on scope exit.
class PipelineScope {
 public:
  PipelineScope(const ScanOptions& opt, const Table& table)
      : table_(&table),
        pipeline_(opt.ctx.profile != nullptr
                      ? opt.ctx.profile->AddPipeline(table.name())
                      : nullptr),
        start_ns_(pipeline_ != nullptr ? obs::MonotonicNs() : 0) {
    const ShardedTable* sharded =
        opt.ctx.shards != nullptr ? opt.ctx.shards->Find(table) : nullptr;
    tables_ = sharded != nullptr ? sharded->tables()
                                 : std::span<const Table* const>(&table_, 1);
  }
  ~PipelineScope() {
    if (pipeline_ != nullptr)
      pipeline_->set_wall_ns(obs::MonotonicNs() - start_ns_);
  }

  PipelineScope(const PipelineScope&) = delete;
  PipelineScope& operator=(const PipelineScope&) = delete;

  obs::PipelineProfile* get() const { return pipeline_; }
  std::span<const Table* const> tables() const { return tables_; }

  /// Times `fn()` as the pipeline's merge step.
  template <typename Fn>
  void Merge(Fn fn) {
    if (pipeline_ == nullptr) {
      fn();
      return;
    }
    const uint64_t t0 = obs::MonotonicNs();
    fn();
    pipeline_->set_merge_ns(obs::MonotonicNs() - t0);
  }

 private:
  const Table* table_;
  std::span<const Table* const> tables_;
  obs::PipelineProfile* pipeline_;
  uint64_t start_ns_;
};

// ---------------------------------------------------------------------------
// Pipeline helpers. Every query pipeline is written once against these,
// and each is one call into a driver of exec/parallel_scan.h: the same
// morsel loop runs sequential (ctx.threads == 1: one slot on the caller's
// thread), morsel-parallel and shard-parallel pipelines. With a State per
// parallelism slot, `merge` folds the states in slot order. Determinism
// contract: consume bodies only perform exact accumulations (integer
// sums/counts, container inserts), so the merged result equals the
// sequential result no matter which worker claimed which morsel.
// ---------------------------------------------------------------------------

/// Scan+aggregate with per-worker states and a merge step.
/// `make_state`: () -> State; `consume`: (State&, const Batch&);
/// `merge`: (State& dst, State& src) folds src into dst.
template <typename State, typename MakeState, typename Consume,
          typename Merge>
State ParAgg(const Table& table, const ScanOptions& opt,
             std::vector<uint32_t> cols, std::vector<Predicate> preds,
             MakeState make_state, Consume consume, Merge merge) {
  PipelineScope pipeline(opt, table);
  std::vector<State> states = ParallelScan<State>(
      pipeline.tables(), std::move(cols), std::move(preds), opt.mode,
      opt.ctx.threads, make_state, consume, opt.vector_size, opt.isa,
      opt.ctx.scheduler, pipeline.get());
  State merged = std::move(states[0]);
  pipeline.Merge([&] {
    for (size_t i = 1; i < states.size(); ++i) merge(merged, states[i]);
  });
  return merged;
}

/// Dense-keyed scan+aggregate through the partitioned-aggregation engine
/// (exec/partitioned_agg.h): ONE T vector over [0, domain) total — not one
/// per slot — with contiguous key partitions and bounded spill buffers
/// for foreign-partition rows. No merge step. Use when the group key is
/// dense by construction (orderkey / custkey / suppkey ordinals) and rows
/// touching any element are many.
/// `produce`: (Sink&, const Batch&) calling sink.Add(key, U);
/// `apply`: (T&, const U&), exact + commutative + associative, so results
/// stay bit-identical to the sequential path.
///
/// `route_key_of` (optional): when the dense domain is derived from the
/// scanned table's shard key (e.g. order ordinals from l_orderkey), pass
/// the inverse map (dense index -> routing key). On a sharded table every
/// element is then owned by the shard whose rows produce it, and updates
/// apply in place under that shard's lock (see DensePartitionedScan).
/// CONTRACT: the map must truly invert the dense index to the row's
/// routing key (debug-asserted); results are identical either way.
template <typename T, typename U, typename Produce, typename Apply>
std::vector<T> ParDenseAgg(const Table& table, const ScanOptions& opt,
                           std::vector<uint32_t> cols,
                           std::vector<Predicate> preds, size_t domain,
                           Produce produce, Apply apply, T init = T{},
                           int64_t (*route_key_of)(size_t) = nullptr) {
  PipelineScope pipeline(opt, table);
  return DensePartitionedScan<T, U>(
      pipeline.tables(), std::move(cols), std::move(preds), opt.mode,
      opt.ctx.threads, domain, produce, std::move(apply), init,
      opt.vector_size, opt.isa, opt.ctx.scheduler, pipeline.get(),
      route_key_of);
}

/// Sparse group-by through the partitioned-aggregation engine: per-worker
/// hash-partitioned AggHashTables merged partition-wise (disjoint
/// partitions, parallel merge) instead of a hand-rolled map + MergeAdd.
/// Use when the group key is sparse or the group count is small relative
/// to the scanned rows. `produce`: (PartitionedAggTable<V>&, const Batch&)
/// calling t.Ref(key); `fold`: (V& dst, const V& src), exact +
/// commutative (dst of a fresh key is value-initialized). The partition
/// count is max(threads, shards): on a sharded table, shard-affine
/// scanning keeps each worker-local table's keys within (mostly) one
/// shard, so each group folds from few locals.
template <typename V, typename Produce, typename Fold>
PartitionedAggTable<V> ParHashAgg(const Table& table, const ScanOptions& opt,
                                  std::vector<uint32_t> cols,
                                  std::vector<Predicate> preds,
                                  Produce produce, Fold fold) {
  PipelineScope pipeline(opt, table);
  const unsigned parts =
      std::max(EffectiveThreads(opt.ctx.threads, opt.ctx.scheduler),
               unsigned(pipeline.tables().size()));
  std::vector<PartitionedAggTable<V>> locals =
      ParallelScan<PartitionedAggTable<V>>(
          pipeline.tables(), std::move(cols), std::move(preds), opt.mode,
          opt.ctx.threads, [parts] { return PartitionedAggTable<V>(parts); },
          [&produce](PartitionedAggTable<V>& t, const Batch& b) {
            produce(t, b);
          },
          opt.vector_size, opt.isa, opt.ctx.scheduler, pipeline.get());
  PartitionedAggTable<V> merged(0);
  pipeline.Merge(
      [&] { merged = MergeAggTables(locals, fold, opt.ctx.scheduler); });
  return merged;
}

/// Parallel scan into shared sinks, for consumers whose writes are
/// per-element disjoint (dense per-order/per-customer vectors where each
/// element is written by exactly one row — a data-race-free pattern) or
/// that only read. `consume`: (const Batch&).
template <typename Consume>
void ParScan(const Table& table, const ScanOptions& opt,
             std::vector<uint32_t> cols, std::vector<Predicate> preds,
             Consume consume) {
  ParAgg<char>(
      table, opt, std::move(cols), std::move(preds), [] { return char{0}; },
      [&consume](char&, const Batch& b) { consume(b); },
      [](char&, const char&) {});
}

/// Dense vector filled by scatter stores through the engine's
/// SharedStoreDense: ONE shared O(domain) vector, valid whenever every
/// row writing an element stores the same value — unique writers (dense
/// per-order sinks) or idempotent flags. No replicas, no locks, no merge.
/// `produce`: (SharedStoreDense<T>&, const Batch&) calling
/// sink.Store(key, value).
template <typename T, typename Produce>
std::vector<T> ParDenseStore(const Table& table, const ScanOptions& opt,
                             std::vector<uint32_t> cols,
                             std::vector<Predicate> preds, size_t domain,
                             Produce produce, T init = T{}) {
  SharedStoreDense<T> sink(domain, init);
  ParScan(table, opt, std::move(cols), std::move(preds),
          [&](const Batch& b) { produce(sink, b); });
  return sink.Take();
}

// Slot-order merges for the common per-worker state shapes.

/// dst[k] += v for maps whose mapped type supports +=.
template <typename Map>
void MergeAdd(Map& dst, const Map& src) {
  for (const auto& [k, v] : src) dst[k] += v;
}

/// Insert-if-absent (keys are unique per row, so collisions across workers
/// can only carry identical values).
template <typename Map>
void MergeInsert(Map& dst, Map& src) {
  dst.merge(src);
}

template <typename Set>
void MergeUnion(Set& dst, const Set& src) {
  dst.insert(src.begin(), src.end());
}

/// Element-wise += over equally sized vectors/arrays.
template <typename Seq>
void MergeSeqAdd(Seq& dst, const Seq& src) {
  for (size_t i = 0; i < src.size(); ++i) dst[i] += src[i];
}

template <typename T>
void MergeConcat(std::vector<T>& dst, std::vector<T>& src) {
  dst.insert(dst.end(), std::make_move_iterator(src.begin()),
             std::make_move_iterator(src.end()));
}

inline std::string Money(int64_t cents) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.2f", double(cents) / 100.0);
  return buf;
}

inline std::string F2(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.2f", v);
  return buf;
}

/// Dense index of an order key (order keys are 4 * ordinal).
inline int64_t OrderIdx(int64_t orderkey) { return orderkey / 4 - 1; }

/// Inverse of OrderIdx — the ParDenseAgg `route_key_of` hint for
/// OrderIdx-indexed dense domains on orderkey-sharded fact tables
/// (co-partitioned direct apply; see DensePartitionedScan).
inline int64_t OrderKeyOf(size_t idx) { return int64_t(idx + 1) * 4; }

}  // namespace detail

}  // namespace datablocks::tpch

#endif  // DATABLOCKS_TPCH_QUERIES_H_
