#ifndef DATABLOCKS_EXEC_PARALLEL_SCAN_H_
#define DATABLOCKS_EXEC_PARALLEL_SCAN_H_

// The pipeline drivers. Every scan+aggregate pipeline of the engine runs
// on ONE morsel loop (MorselScan below), whatever its shape:
//
//  * Sequential, morsel-parallel and shard-parallel runs differ only in
//    their inputs. A pipeline scans a span of tables: one unsharded table
//    is a one-element span of itself (no copy), a ShardedTable
//    (exec/shard.h) passes its shard tables. `num_threads == 1` is a
//    one-slot run on the caller's thread.
//  * ParallelScan gives every parallelism slot its own state and returns
//    the states for the caller to merge in slot order.
//  * DensePartitionedScan accumulates into ONE dense vector
//    (PartitionedDense, exec/partitioned_agg.h) and has no merge step.
//
// Morsels are single chunks claimed from one NodeMorselDispatcher per
// table. Slot t drains table t % S first, then steals from the others in
// wrap-around order: with slots >= shards each worker's state stays
// (mostly) shard-local, and no slot idles while any table has unclaimed
// chunks. SMA/PSMA pruning happens inside every slot's scanners.
//
// Safe to run concurrently with the block lifecycle: each TableScanner
// pins its claimed chunk (reloading it if evicted) for the duration of
// that morsel, so background freezing/eviction can proceed on all
// unclaimed chunks without invalidating in-flight scans.
//
// Determinism: consume/apply bodies must be exact and order-independent
// (integer sums, set inserts, commutative folds), so the result does not
// depend on which slot claimed which morsel, nor on the shard count.

#include <cassert>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "exec/partitioned_agg.h"
#include "exec/scheduler.h"
#include "exec/shard.h"
#include "exec/table_scanner.h"
#include "obs/query_profile.h"

namespace datablocks {

/// The morsel loop of one pipeline over `tables`, shared by its slots.
class MorselScan {
 public:
  MorselScan(std::span<const Table* const> tables,
             const std::vector<uint32_t>& columns,
             const std::vector<Predicate>& predicates, ScanMode mode,
             uint32_t vector_size, Isa isa, obs::PipelineProfile* pipeline)
      : tables_(tables),
        columns_(columns),
        predicates_(predicates),
        mode_(mode),
        vector_size_(vector_size),
        isa_(isa),
        pipeline_(pipeline) {
    morsels_.reserve(tables.size());
    for (const Table* table : tables) {
      std::vector<int> chunk_nodes(table->num_chunks());
      for (size_t i = 0; i < chunk_nodes.size(); ++i) {
        chunk_nodes[i] = table->chunk_node(i);
      }
      morsels_.push_back(std::make_unique<NodeMorselDispatcher>(chunk_nodes));
    }
  }

  /// Runs slot `slot` until every table is drained, calling
  /// on_batch(const Batch&, size_t table) per produced vector. Records the
  /// slot's profile (and, with S > 1 tables, its per-shard slices).
  template <typename OnBatch>
  void Drain(unsigned slot, OnBatch on_batch) {
    obs::WorkerScope scope(pipeline_, slot);
    const int my_node = Scheduler::CurrentWorkerNode();
    const size_t num_tables = tables_.size();
    Batch batch;
    for (size_t k = 0; k < num_tables; ++k) {
      const size_t t = (slot + k) % num_tables;
      uint64_t morsels = 0, batches = 0, rows = 0;
      // Lazy: a slot that claims nothing from a table builds no scanner.
      std::optional<TableScanner> scanner;
      size_t begin, end;
      while (morsels_[t]->Next(my_node, &begin, &end)) {
        if (!scanner) {
          scanner.emplace(*tables_[t], columns_, predicates_, mode_,
                          vector_size_, isa_);
        }
        scope.OnMorsel();
        ++morsels;
        scanner->RestrictChunks(begin, end);
        while (scanner->Next(&batch)) {
          scope.OnBatch(batch.count, batch.AnyCoded());
          ++batches;
          rows += batch.count;
          on_batch(batch, t);
        }
        // Per-morsel harvest: RestrictChunks reset the scanner's counters,
        // so the current values are exactly this morsel's delta.
        scope.OnScanTotals(scanner->chunks_scanned(),
                           scanner->rows_considered(),
                           scanner->chunks_skipped(),
                           scanner->evicted_chunks_skipped(),
                           scanner->pins_taken(), scanner->archive_reloads());
      }
      if (num_tables > 1 && pipeline_ != nullptr && morsels != 0) {
        pipeline_->AddShardSlice(unsigned(t), morsels, batches, rows);
      }
    }
  }

 private:
  std::span<const Table* const> tables_;
  const std::vector<uint32_t>& columns_;
  const std::vector<Predicate>& predicates_;
  ScanMode mode_;
  uint32_t vector_size_;
  Isa isa_;
  obs::PipelineProfile* pipeline_;
  std::vector<std::unique_ptr<NodeMorselDispatcher>> morsels_;
};

/// Scan with one state per parallelism slot. `tables`: see the header
/// comment. `make_state`: () -> State; `consume`: (State&, const Batch&).
/// Returns the per-slot states for the caller to merge in slot order.
/// `num_threads == 0` means "all hardware threads" (the pool's worker
/// count when one is given); `scheduler == nullptr` uses
/// Scheduler::Default(). `pipeline` (optional) receives per-worker
/// execution profiles — morsel / batch / row counts and the scanners'
/// block accounting; nullptr = off.
template <typename State, typename MakeState, typename Consume>
std::vector<State> ParallelScan(std::span<const Table* const> tables,
                                std::vector<uint32_t> columns,
                                std::vector<Predicate> predicates,
                                ScanMode mode, unsigned num_threads,
                                MakeState make_state, Consume consume,
                                uint32_t vector_size =
                                    TableScanner::kDefaultVectorSize,
                                Isa isa = BestIsa(),
                                Scheduler* scheduler = nullptr,
                                obs::PipelineProfile* pipeline = nullptr) {
  num_threads = EffectiveThreads(num_threads, scheduler);
  std::vector<State> states;
  states.reserve(num_threads);
  for (unsigned t = 0; t < num_threads; ++t) states.push_back(make_state());

  MorselScan scan(tables, columns, predicates, mode, vector_size, isa,
                  pipeline);
  RunOnSlots(
      num_threads,
      [&](unsigned slot) {
        scan.Drain(slot,
                   [&](const Batch& b, size_t) { consume(states[slot], b); });
      },
      scheduler);
  return states;
}

/// Scan whose aggregation state is one dense T vector over [0, domain)
/// instead of a per-slot replica. `produce` is (Sink&, const Batch&) and
/// calls sink.Add(key, update) per qualifying row; `apply` is (T&, const
/// U&), exact + commutative + associative. Every slot's updates are
/// applied before the call returns — there is no merge step.
///
/// The state is a PartitionedDense (contiguous key ranges, per-range
/// locks, spill buffers) — except for a co-partitioned domain over
/// several shards: when `route_key_of` maps a dense index back to the
/// shard key of the rows that produce it (e.g. order ordinals of an
/// orderkey-sharded table), every update a shard's rows produce is owned
/// by that shard, and updates apply in place under a per-shard lock.
/// CONTRACT: `route_key_of` must truly invert the dense index to the
/// row's routing key (assert-checked in debug builds); a domain not
/// derived from the shard key routed this way would race two shards onto
/// one element.
template <typename T, typename U, typename Apply, typename Produce>
std::vector<T> DensePartitionedScan(
    std::span<const Table* const> tables, std::vector<uint32_t> columns,
    std::vector<Predicate> predicates, ScanMode mode, unsigned num_threads,
    size_t domain, Produce produce, Apply apply = Apply{}, T init = T{},
    uint32_t vector_size = TableScanner::kDefaultVectorSize,
    Isa isa = BestIsa(), Scheduler* scheduler = nullptr,
    obs::PipelineProfile* pipeline = nullptr,
    int64_t (*route_key_of)(size_t) = nullptr) {
  num_threads = EffectiveThreads(num_threads, scheduler);
  MorselScan scan(tables, columns, predicates, mode, vector_size, isa,
                  pipeline);

  if (route_key_of != nullptr && tables.size() > 1) {
    std::vector<T> dense(domain, init);
    aggstate::Add(aggstate::Kind::kDense, dense.size() * sizeof(T));
    const unsigned num_shards = unsigned(tables.size());
    // Two slots can drain the same shard (stealing), hence the locks.
    // None is held across a batch boundary.
    std::unique_ptr<std::mutex[]> locks(new std::mutex[num_shards]);
    struct DirectSink {
      std::vector<T>& dense;
      Apply& apply;
      int64_t (*route_key_of)(size_t);
      unsigned num_shards;
      size_t shard = 0;
      void Add(size_t key, const U& u) {
        assert(ShardedTable::ShardOf(route_key_of(key), num_shards) ==
               shard);
        apply(dense[key], u);
      }
    };
    RunOnSlots(
        num_threads,
        [&](unsigned slot) {
          DirectSink sink{dense, apply, route_key_of, num_shards};
          scan.Drain(slot, [&](const Batch& b, size_t shard) {
            std::lock_guard<std::mutex> lock(locks[shard]);
            sink.shard = shard;
            produce(sink, b);
          });
        },
        scheduler);
    aggstate::Sub(aggstate::Kind::kDense, dense.size() * sizeof(T));
    return dense;
  }

  using State = PartitionedDense<T, U, Apply>;
  State state(domain, num_threads, std::move(apply), init);
  RunOnSlots(
      num_threads,
      [&](unsigned slot) {
        typename State::Sink& sink = state.sink(slot);
        // The sink keeps a partition run lock from one batch to the next:
        // flush it before urgent tasks run at a batch boundary of this
        // slot.
        Scheduler::PreemptRelease release(
            [](void* s) { static_cast<typename State::Sink*>(s)->Flush(); },
            &sink);
        scan.Drain(slot, [&](const Batch& b, size_t) { produce(sink, b); });
        sink.Flush();
      },
      scheduler);
  return state.Take();
}

}  // namespace datablocks

#endif  // DATABLOCKS_EXEC_PARALLEL_SCAN_H_
