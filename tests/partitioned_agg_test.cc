// Partitioned aggregation engine: dense partition ownership is
// exactly-once across morsel interleavings, spill buffers are flushed by
// the time the parallel region joins, the single-worker degenerate case
// applies directly, the sparse AggHashTable / partition-wise merge, and
// the O(rows x slots) -> O(rows) dense-state guarantee on the TPC-H
// dense-keyed queries (asserted through the aggregation-state byte
// counters).

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "exec/parallel_scan.h"
#include "exec/partitioned_agg.h"
#include "exec/scheduler.h"
#include "exec/shard.h"
#include "test_table_util.h"
#include "tpch/queries.h"
#include "util/rng.h"

namespace datablocks {
namespace {

TEST(AggState, CountersTrackCurrentAndPeakBytes) {
  aggstate::ResetPeaks();
  const aggstate::Stats before = aggstate::GetStats();
  {
    PartitionedDense<int64_t, int64_t, ApplyAdd> state(1000, 1);
    const aggstate::Stats during = aggstate::GetStats();
    EXPECT_EQ(during.dense_bytes, before.dense_bytes + 1000 * 8);
    EXPECT_GE(during.peak_dense_bytes, before.dense_bytes + 1000 * 8);
  }
  const aggstate::Stats after = aggstate::GetStats();
  EXPECT_EQ(after.dense_bytes, before.dense_bytes);       // released
  EXPECT_GE(after.peak_dense_bytes, 1000 * 8ull);         // peak sticks
  EXPECT_GE(after.peak_total_bytes, after.peak_dense_bytes);
}

TEST(PartitionedDense, SingleSlotAppliesDirectly) {
  PartitionedDense<int32_t, int32_t, ApplyAdd> state(100, 1);
  auto& sink = state.sink(0);
  for (int i = 0; i < 100; ++i) sink.Add(size_t(i % 10), 1);
  // No buffering in the degenerate case: visible without any Flush.
  EXPECT_EQ(sink.pending(), 0u);
  for (int k = 0; k < 10; ++k) EXPECT_EQ(state.dense()[size_t(k)], 10);
  std::vector<int32_t> taken = state.Take();
  EXPECT_EQ(taken[0], 10);
}

TEST(PartitionedDense, RoutesForeignKeysThroughSpillBuffers) {
  // Two slots over [0, 100): lock partitioning is finer than the slots
  // (power-of-two spans, up to kMaxPartitions) and covers the domain.
  PartitionedDense<int32_t, int32_t, ApplyAdd> state(100, 2);
  EXPECT_EQ(state.OwnerOf(0), 0u);
  EXPECT_EQ(state.OwnerOf(99), size_t(state.partitions()) - 1);
  EXPECT_LE(state.partitions(), 64u);
  for (size_t k = 1; k < 100; ++k) {
    EXPECT_LE(state.OwnerOf(k - 1), state.OwnerOf(k));  // contiguous ranges
  }
  auto& sink = state.sink(0);
  sink.Add(75, 7);  // foreign partition: buffered, not yet applied
  EXPECT_EQ(sink.pending(), 1u);
  EXPECT_EQ(state.dense()[75], 0);
  sink.Flush();
  EXPECT_EQ(sink.pending(), 0u);
  EXPECT_EQ(state.dense()[75], 7);
}

TEST(PartitionedDense, AutoFlushesFullSpillBuffers) {
  using State = PartitionedDense<int64_t, int64_t, ApplyAdd>;
  State state(10, 2);
  auto& sink = state.sink(0);
  // Push exactly one full buffer of foreign-partition updates: the last
  // Add crosses kSpillCapacity and must flush without an explicit call.
  for (size_t i = 0; i < State::kSpillCapacity; ++i) sink.Add(9, 1);
  EXPECT_EQ(sink.pending(), 0u);
  EXPECT_EQ(state.dense()[9], int64_t(State::kSpillCapacity));
}

TEST(PartitionedDense, ExactlyOnceAcrossMorselInterleavings) {
  // 4 slots on a 3-worker pool hammer one shared dense vector with updates
  // whose keys sweep every partition from every slot (the domain is large
  // enough for multiple partitions, so mixed buffers take the radix
  // path), far past the spill capacity so mid-scan flushes interleave
  // with concurrent adds.
  const size_t kDomain = 200000;
  const int kPerSlotRounds = 50000;
  const unsigned kSlots = 4;
  Scheduler sched(Scheduler::Options{.num_workers = 3});
  PartitionedDense<int64_t, int64_t, ApplyAdd> state(kDomain, kSlots);
  ASSERT_GT(state.partitions(), 1u);  // scattered keys hit the radix path
  RunOnSlots(
      kSlots,
      [&](unsigned slot) {
        auto& sink = state.sink(slot);
        Rng rng(1234 + slot);
        for (int r = 0; r < kPerSlotRounds; ++r) {
          sink.Add(size_t(rng.Uniform(0, int64_t(kDomain) - 1)), 1);
        }
        sink.Flush();
      },
      &sched);
  // Every update applied exactly once, no matter which worker flushed
  // into which partition when.
  int64_t total = 0;
  for (int64_t v : state.dense()) total += v;
  EXPECT_EQ(total, int64_t(kSlots) * kPerSlotRounds);
}

TEST(DensePartitionedScan, FlushesBeforeTheParallelRegionJoins) {
  // End-to-end through the scan driver: per-key sums over a real table
  // must equal the sequential result immediately after the call returns —
  // i.e. every spill buffer was flushed before TaskGroup::Wait finished.
  // Over one table and over a 2-shard copy of it: both run on
  // PartitionedDense, whose sinks keep run locks across batches.
  Table t = MakeTestTable(20000, 1024, /*delete_every=*/7, /*freeze=*/true);
  ShardedTable sharded(t, 2, /*route_col=*/0);
  sharded.FreezeAll();
  const Table* one[] = {&t};
  const size_t kDomain = 64;
  std::vector<int64_t> expect(kDomain, 0);
  {
    TableScanner scan(t, {0, 1}, {}, ScanMode::kDataBlocks);
    Batch b;
    while (scan.Next(&b)) {
      for (uint32_t i = 0; i < b.count; ++i) {
        expect[size_t(b.cols[0].i64[i]) % kDomain] += b.cols[1].i32[i];
      }
    }
  }
  Scheduler sched(Scheduler::Options{.num_workers = 2});
  for (std::span<const Table* const> tables :
       {std::span<const Table* const>(one), sharded.tables()}) {
    for (unsigned threads : {1u, 3u, 8u}) {
      std::vector<int64_t> got = DensePartitionedScan<int64_t, int64_t>(
          tables, {0, 1}, {}, ScanMode::kDataBlocks, threads, kDomain,
          [](auto& sink, const Batch& b) {
            for (uint32_t i = 0; i < b.count; ++i) {
              sink.Add(size_t(b.cols[0].i64[i]) % 64, b.cols[1].i32[i]);
            }
          },
          ApplyAdd{}, int64_t{0}, TableScanner::kDefaultVectorSize,
          BestIsa(), &sched);
      EXPECT_EQ(got, expect)
          << tables.size() << " table(s), threads=" << threads;
    }
  }
}

TEST(SharedStoreDense, IdempotentStoresFromConcurrentSlots) {
  // Duplicate idempotent stores from racing slots: one shared vector, no
  // replicas, every flagged element set after the join.
  const size_t kDomain = 4096;
  Scheduler sched(Scheduler::Options{.num_workers = 3});
  aggstate::ResetPeaks();
  SharedStoreDense<uint8_t> state(kDomain);
  EXPECT_GE(aggstate::GetStats().dense_bytes, kDomain);
  RunOnSlots(
      4,
      [&](unsigned slot) {
        Rng rng(77 + slot);
        for (int i = 0; i < 20000; ++i) {
          state.Store(size_t(rng.Uniform(0, int64_t(kDomain) - 1)) & ~1ull,
                      1);  // even keys only, from every slot
        }
      },
      &sched);
  std::vector<uint8_t> flags = state.Take();
  for (size_t k = 1; k < kDomain; k += 2) {
    ASSERT_EQ(flags[k], 0) << k;  // odd keys never stored
  }
  int64_t set = 0;
  for (uint8_t f : flags) set += f;
  EXPECT_GT(set, int64_t(kDomain) / 4);  // 80k draws over 2k even slots
}

TEST(AggHashTable, InsertFindGrowForEach) {
  aggstate::ResetPeaks();
  AggHashTable<int64_t> t;
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.Find(42), nullptr);
  for (uint64_t k = 0; k < 10000; ++k) t.Ref(k * 3) += int64_t(k);
  for (uint64_t k = 0; k < 10000; ++k) t.Ref(k * 3) += 1;  // hit, not grow
  EXPECT_EQ(t.size(), 10000u);
  for (uint64_t k = 0; k < 10000; ++k) {
    const int64_t* v = t.Find(k * 3);
    ASSERT_NE(v, nullptr) << k;
    EXPECT_EQ(*v, int64_t(k) + 1);
  }
  EXPECT_EQ(t.Find(1), nullptr);  // absent keys between the multiples
  size_t seen = 0;
  int64_t sum = 0;
  t.ForEach([&](uint64_t, const int64_t& v) {
    ++seen;
    sum += v;
  });
  EXPECT_EQ(seen, 10000u);
  EXPECT_EQ(sum, int64_t(9999) * 10000 / 2 + 10000);
  // Growing re-accounted its bytes; moving transfers ownership once.
  EXPECT_GE(aggstate::GetStats().table_bytes, t.capacity_bytes());
  AggHashTable<int64_t> moved = std::move(t);
  EXPECT_EQ(moved.size(), 10000u);
  EXPECT_EQ(*moved.Find(0), 1);
}

TEST(MergeAggTables, PartitionWiseMergeMatchesReference) {
  const unsigned kPartitions = 4;
  Scheduler sched(Scheduler::Options{.num_workers = 2});
  std::vector<PartitionedAggTable<int64_t>> locals;
  std::map<uint64_t, int64_t> reference;
  Rng rng(99);
  for (unsigned w = 0; w < 3; ++w) {
    locals.emplace_back(PartitionedAggTable<int64_t>(kPartitions));
    for (int i = 0; i < 5000; ++i) {
      uint64_t key = uint64_t(rng.Uniform(0, 999));
      int64_t val = rng.Uniform(1, 100);
      locals.back().Ref(key) += val;
      reference[key] += val;
    }
  }
  PartitionedAggTable<int64_t> merged =
      MergeAggTables(locals, ApplyAdd{}, &sched);
  EXPECT_EQ(merged.partitions(), kPartitions);
  std::map<uint64_t, int64_t> got;
  merged.ForEach([&](uint64_t k, const int64_t& v) {
    EXPECT_TRUE(got.emplace(k, v).second) << "duplicate key " << k;
  });
  EXPECT_EQ(got, reference);
  // Spot-check the routing invariant: every entry sits in its partition.
  for (unsigned p = 0; p < kPartitions; ++p) {
    merged.partition(p).ForEach([&](uint64_t k, const int64_t&) {
      EXPECT_EQ(merged.PartitionIndexOf(k), p);
    });
  }
}

// The acceptance guarantee of the engine: the dense-keyed TPC-H queries
// allocate ONE O(rows) dense state total, independent of the thread
// count. With per-slot replicas the dense peak would scale with slots;
// with the partitioned engine it is bit-for-bit equal between the
// sequential and the 4-slot run (spill buffers are accounted separately
// and bounded by slots^2 * kSpillCapacity entries).
TEST(PartitionedAgg, DenseQueryStatePeakIndependentOfThreads) {
  tpch::TpchConfig cfg;
  cfg.scale_factor = 0.01;
  cfg.chunk_capacity = 4096;  // several morsels per table
  auto db = tpch::MakeTpch(cfg);
  Scheduler sched(Scheduler::Options{.num_workers = 3});
  for (int q : {1, 13, 15, 18, 21, 22}) {
    tpch::ScanOptions seq;
    seq.mode = ScanMode::kVectorizedSarg;
    aggstate::ResetPeaks();
    tpch::QueryResult ref = tpch::RunQuery(q, *db, seq);
    const uint64_t dense_peak_seq = aggstate::GetStats().peak_dense_bytes;
    EXPECT_GT(dense_peak_seq, 0u) << "Q" << q << " is not dense-keyed?";

    tpch::ScanOptions par = seq;
    par.ctx.threads = 4;
    par.ctx.scheduler = &sched;
    aggstate::ResetPeaks();
    tpch::QueryResult got = tpch::RunQuery(q, *db, par);
    const aggstate::Stats stats = aggstate::GetStats();
    EXPECT_EQ(stats.peak_dense_bytes, dense_peak_seq) << "Q" << q;
    EXPECT_EQ(got.rows, ref.rows) << "Q" << q;
  }
}

}  // namespace
}  // namespace datablocks
