// Morsel-driven execution engine: worker pool + work stealing, the morsel
// dispatcher, periodic tasks, scheduler-backed lifecycle ticks, parallel
// TPC-H result equality, and the parallel-query-vs-eviction/compaction
// stress the TSan CI leg leans on.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <future>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "exec/parallel_scan.h"
#include "exec/partitioned_agg.h"
#include "exec/scheduler.h"
#include "exec/shard.h"
#include "lifecycle/lifecycle_manager.h"
#include "obs/metrics.h"
#include "test_table_util.h"
#include "tpch/queries.h"
#include "util/cpu.h"

namespace datablocks {
namespace {

/// Spin-waits (with yields) until `pred` holds or ~5s elapsed.
template <typename Pred>
bool WaitFor(Pred pred) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!pred()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

/// Runs `fn` as a task of `sched` and waits for it, so a pipeline it
/// starts has slot 0 on a pool worker, as a served query does. A task
/// that does not finish within a minute is a deadlock: abort loudly
/// instead of hanging the suite.
template <typename Fn>
void RunAsPoolTask(Scheduler& sched, Fn fn) {
  std::promise<void> done;
  std::future<void> finished = done.get_future();
  sched.Submit([&] {
    fn();
    done.set_value();
  });
  if (finished.wait_for(std::chrono::seconds(60)) !=
      std::future_status::ready) {
    std::fprintf(stderr, "pool task did not finish: deadlock\n");
    std::abort();
  }
}

uint64_t UrgentPreemptions() {
  return obs::MetricsRegistry::Default()
      .GetCounter("scheduler.urgent_preemptions")
      ->Value();
}

TEST(Topology, HardwareThreadsGuardAndShape) {
  // The one hardware_concurrency()==0 guard of the codebase: always >= 1.
  EXPECT_GE(cpu::HardwareThreads(), 1u);
  const cpu::Topology& topo = cpu::HostTopology();
  EXPECT_EQ(topo.cpus.size(), topo.node_of.size());
  EXPECT_GE(topo.num_nodes, 1u);
  if (!topo.cpus.empty()) {
    EXPECT_EQ(topo.hardware_threads, unsigned(topo.cpus.size()));
    // Node-major order: nodes never decrease along the cpu list.
    for (size_t i = 1; i < topo.node_of.size(); ++i)
      EXPECT_LE(topo.node_of[i - 1], topo.node_of[i]) << i;
  }
  EXPECT_GE(EffectiveThreads(0), 1u);
  EXPECT_EQ(EffectiveThreads(5), 5u);
}

TEST(Scheduler, TaskGroupRunsEveryTask) {
  Scheduler sched(Scheduler::Options{.num_workers = 3});
  EXPECT_EQ(sched.num_workers(), 3u);
  std::atomic<int> count{0};
  TaskGroup group(&sched);
  for (int i = 0; i < 64; ++i) {
    group.Run([&count] { count.fetch_add(1, std::memory_order_relaxed); });
  }
  group.Wait();
  EXPECT_EQ(count.load(), 64);
}

TEST(Scheduler, WorkStealingDrainsABlockedWorkersQueue) {
  Scheduler sched(Scheduler::Options{.num_workers = 2});
  // Park one worker on a latch; its queued tasks can then only complete by
  // being stolen from the sibling.
  std::promise<void> release;
  std::shared_future<void> released(release.get_future());
  sched.Submit([released] { released.wait(); });
  std::atomic<int> done{0};
  for (int i = 0; i < 16; ++i) {
    sched.Submit([&done] { done.fetch_add(1, std::memory_order_relaxed); });
  }
  EXPECT_TRUE(WaitFor([&] { return done.load() == 16; }));
  EXPECT_GE(sched.steals(), 1u);
  release.set_value();
}

TEST(Scheduler, UrgentSubmitOvertakesQueuedTasks) {
  // One worker, no stealing: queue order is execution order. An urgent
  // task enqueued last must still run before the earlier normal tasks —
  // this is what lets OLTP point ops overtake queued scan morsels.
  Scheduler sched(Scheduler::Options{.num_workers = 1});
  std::promise<void> release;
  std::shared_future<void> released(release.get_future());
  std::atomic<bool> started{false};
  sched.Submit([&] {
    started = true;
    released.wait();
  });
  ASSERT_TRUE(WaitFor([&] { return started.load(); }));
  std::vector<int> order;
  std::mutex order_mu;
  auto record = [&](int tag) {
    std::lock_guard<std::mutex> lock(order_mu);
    order.push_back(tag);
  };
  sched.Submit([&, tag = 1] { record(tag); });
  sched.Submit([&, tag = 2] { record(tag); });
  sched.SubmitUrgent([&, tag = 0] { record(tag); });
  release.set_value();
  EXPECT_TRUE(WaitFor([&] {
    std::lock_guard<std::mutex> lock(order_mu);
    return order.size() == 3;
  }));
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(Scheduler, UrgentTaskPreemptsARunningParallelScan) {
  // Both workers run slots of one multi-chunk scan, so no worker is free.
  // An urgent task submitted from the scan must still run at a batch
  // boundary while batches are left, not after the scan.
  Table t = MakeTestTable(32 * 1024, 1024, /*delete_every=*/0,
                          /*freeze=*/true);
  Scheduler sched(Scheduler::Options{.num_workers = 2});
  std::atomic<unsigned> slots_in{0};
  std::atomic<bool> submitted{false};
  std::atomic<int64_t> batches{0};
  std::atomic<int64_t> batches_at_urgent{-1};
  const uint64_t preemptions0 = UrgentPreemptions();
  const Table* one[] = {&t};
  RunAsPoolTask(sched, [&] {
    ParallelScan<int>(
        one, {0}, {}, ScanMode::kDataBlocks, /*num_threads=*/2,
        [] { return 0; },
        [&](int& seen, const Batch&) {
          if (seen++ == 0) {
            // Each slot holds its first batch until both slots run: then
            // every worker of the pool is inside the scan.
            slots_in.fetch_add(1);
            EXPECT_TRUE(WaitFor([&] { return slots_in.load() == 2; }));
            if (!submitted.exchange(true)) {
              sched.SubmitUrgent(
                  [&] { batches_at_urgent = batches.load(); });
            }
          }
          batches.fetch_add(1);
        },
        /*vector_size=*/256, BestIsa(), &sched);
  });
  EXPECT_EQ(batches.load(), 128);  // 32 chunks x 4 batches
  EXPECT_GE(batches_at_urgent.load(), 0);
  EXPECT_LT(batches_at_urgent.load(), batches.load());
  EXPECT_GE(UrgentPreemptions(), preemptions0 + 1);
}

TEST(Scheduler, UrgentTaskDoesNotRunUrgentTasksNestedInsideItself) {
  // One worker, busy with a scan. The first urgent task preempts it; it
  // submits a second one and then scans itself. The second must wait for
  // the first to return, not run at the first one's batch boundaries.
  Table t = MakeTestTable(16 * 1024, 1024, /*delete_every=*/0,
                          /*freeze=*/true);
  const ScanResult expect = FullScan(t);
  Scheduler sched(Scheduler::Options{.num_workers = 1});
  std::atomic<bool> first_done{false};
  std::atomic<int> second_saw_first_done{-1};
  std::atomic<int64_t> batches{0};
  std::atomic<int64_t> batches_at_first{-1};
  ScanResult first_scan;
  const Table* one[] = {&t};
  RunAsPoolTask(sched, [&] {
    ParallelScan<int>(
        one, {0}, {}, ScanMode::kDataBlocks, /*num_threads=*/1,
        [] { return 0; },
        [&](int&, const Batch&) {
          if (batches.fetch_add(1) != 0) return;
          sched.SubmitUrgent([&] {
            batches_at_first = batches.load();
            sched.SubmitUrgent(
                [&] { second_saw_first_done = first_done.load() ? 1 : 0; });
            first_scan = FullScan(t);  // batch boundaries of its own
            first_done = true;
          });
        },
        /*vector_size=*/256, BestIsa(), &sched);
  });
  ASSERT_TRUE(WaitFor([&] { return second_saw_first_done.load() >= 0; }));
  EXPECT_EQ(second_saw_first_done.load(), 1);
  EXPECT_EQ(first_scan, expect);
  EXPECT_GE(batches_at_first.load(), 0);
  EXPECT_LT(batches_at_first.load(), batches.load());
}

TEST(Scheduler, RunUrgentHereIsANoOpOutsideThePool) {
  Table t = MakeTestTable(4 * 1024, 1024, /*delete_every=*/0,
                          /*freeze=*/true);
  Scheduler sched(Scheduler::Options{.num_workers = 1});
  std::promise<void> release;
  std::shared_future<void> released(release.get_future());
  std::atomic<bool> started{false};
  sched.Submit([&] {
    started = true;
    released.wait();
  });
  ASSERT_TRUE(WaitFor([&] { return started.load(); }));
  std::atomic<bool> ran{false};
  sched.SubmitUrgent([&] { ran = true; });
  // This thread is no pool worker: neither the hook nor a scan's batch
  // boundaries may run the pending urgent task here.
  Scheduler::RunUrgentHere();
  EXPECT_EQ(FullScan(t).count, 4 * 1024);
  EXPECT_FALSE(ran.load());
  release.set_value();
  EXPECT_TRUE(WaitFor([&] { return ran.load(); }));
}

TEST(Scheduler, UrgentDensePartitionedScanInsideADensePartitionedScan) {
  // A 64-element domain is one lock partition, so an outer slot keeps
  // the partition's run lock from batch to batch while the other slot's
  // flushes wait for it. The urgent task first waits for the other slot
  // to consume 16 more batches (one spill-buffer flush, which needs the
  // lock): that only happens if the preempted slot dropped the lock
  // before running the task. Then it runs a DensePartitionedScan of its
  // own. (Waiting on a pipeline breaks the urgent-task contract; here it
  // is the probe.) Over one table and over a 2-shard copy of it: both
  // run on PartitionedDense.
  Table t = MakeTestTable(64 * 1024, 1024, /*delete_every=*/0,
                          /*freeze=*/true);
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
  auto produce = [](auto& sink, const Batch& b) {
    for (uint32_t i = 0; i < b.count; ++i) {
      sink.Add(size_t(b.cols[0].i64[i]) % 64, b.cols[1].i32[i]);
    }
  };
  for (std::span<const Table* const> tables :
       {std::span<const Table* const>(one), sharded.tables()}) {
    SCOPED_TRACE(std::to_string(tables.size()) + " table(s)");
    Scheduler sched(Scheduler::Options{.num_workers = 2});
    std::atomic<int64_t> batches{0};
    std::atomic<bool> submitted{false};
    std::atomic<bool> other_slot_moved{false};
    std::vector<int64_t> outer, inner;
    RunAsPoolTask(sched, [&] {
      outer = DensePartitionedScan<int64_t, int64_t>(
          tables, {0, 1}, {}, ScanMode::kDataBlocks, /*num_threads=*/2,
          kDomain,
          [&](auto& sink, const Batch& b) {
            produce(sink, b);
            const int64_t n = batches.fetch_add(1) + 1;
            // By batch 64 both slots flushed a 16-batch spill buffer: one
            // of them holds the run lock, the other waits for it.
            if (n < 64 || submitted.exchange(true)) return;
            sched.SubmitUrgent([&, n] {
              other_slot_moved =
                  WaitFor([&] { return batches.load() >= n + 16; });
              inner = DensePartitionedScan<int64_t, int64_t>(
                  tables, {0, 1}, {}, ScanMode::kDataBlocks,
                  /*num_threads=*/2, kDomain, produce, ApplyAdd{},
                  int64_t{0}, /*vector_size=*/256, BestIsa(), &sched);
            });
          },
          ApplyAdd{}, int64_t{0}, /*vector_size=*/256, BestIsa(), &sched);
    });
    EXPECT_TRUE(other_slot_moved.load());
    EXPECT_EQ(outer, expect);
    EXPECT_EQ(inner, expect);
  }
}

TEST(Scheduler, MorselDispatcherHandsOutEveryRangeExactlyOnce) {
  MorselDispatcher morsels(103, 7);
  std::vector<std::vector<size_t>> claimed(4);
  {
    Scheduler sched(Scheduler::Options{.num_workers = 4});
    TaskGroup group(&sched);
    for (unsigned t = 0; t < 4; ++t) {
      group.Run([&morsels, &mine = claimed[t]] {
        size_t b, e;
        while (morsels.Next(&b, &e)) {
          EXPECT_LT(b, e);
          EXPECT_LE(e, 103u);
          for (size_t i = b; i < e; ++i) mine.push_back(i);
        }
      });
    }
    group.Wait();
  }
  std::set<size_t> all;
  size_t total = 0;
  for (const auto& mine : claimed) {
    total += mine.size();
    all.insert(mine.begin(), mine.end());
  }
  EXPECT_EQ(total, 103u);       // no element claimed twice
  EXPECT_EQ(all.size(), 103u);  // no element dropped
}

TEST(Scheduler, ParallelScanWithMoreSlotsThanWorkers) {
  Table t = MakeTestTable(20000, 1024, /*delete_every=*/7, /*freeze=*/true);
  ScanResult expect = FullScan(t);
  Scheduler sched(Scheduler::Options{.num_workers = 2});
  const Table* one[] = {&t};
  auto states = ParallelScan<ScanResult>(
      one, {0, 1, 2}, {}, ScanMode::kDataBlocks, /*num_threads=*/8,
      [] { return ScanResult{}; },
      [](ScanResult& r, const Batch& b) {
        for (uint32_t i = 0; i < b.count; ++i) {
          ++r.count;
          r.sum += b.cols[0].i64[i] + b.cols[1].i32[i];
        }
      },
      TableScanner::kDefaultVectorSize, BestIsa(), &sched);
  ASSERT_EQ(states.size(), 8u);
  int64_t count = 0, sum = 0;
  for (const ScanResult& s : states) {
    count += s.count;
    sum += s.sum;
  }
  EXPECT_EQ(count, expect.count);
  EXPECT_EQ(sum, expect.sum);
}

TEST(Scheduler, PeriodicTasksFireUntilRemoved) {
  Scheduler sched(Scheduler::Options{.num_workers = 2});
  std::atomic<int> fired{0};
  uint64_t id = sched.AddPeriodic(
      std::chrono::milliseconds(2),
      [&fired] { fired.fetch_add(1, std::memory_order_relaxed); });
  ASSERT_NE(id, 0u);
  EXPECT_TRUE(WaitFor([&] { return fired.load() >= 3; }));
  sched.RemovePeriodic(id);
  const int after_remove = fired.load();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(fired.load(), after_remove);  // never fires again
  sched.RemovePeriodic(id);               // idempotent
}

TEST(Scheduler, LifecycleTicksRunOnTheSharedPool) {
  Scheduler sched(Scheduler::Options{.num_workers = 2});
  Table t = MakeTestTable(1024, 256);
  const std::string path = "/tmp/datablocks_scheduler_lifecycle.dbar";
  {
    LifecycleConfig cfg;
    cfg.cold_threshold = 0;
    cfg.freeze_after_cold_epochs = 2;
    cfg.decay_shift = 32;
    cfg.tick_interval = std::chrono::milliseconds(1);
    cfg.scheduler = &sched;
    LifecycleManager mgr(&t, path, cfg);
    EXPECT_FALSE(mgr.running());
    mgr.Start();
    EXPECT_TRUE(mgr.running());
    // Ticks advance (on pool workers — no dedicated thread) and the policy
    // still freezes cooled-down chunks.
    EXPECT_TRUE(WaitFor([&] { return mgr.stats().epochs >= 4; }));
    EXPECT_TRUE(WaitFor([&] { return mgr.stats().freezes >= 3; }));
    mgr.Stop();
    EXPECT_FALSE(mgr.running());
    const uint64_t epochs = mgr.stats().epochs;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    EXPECT_EQ(mgr.stats().epochs, epochs);  // no tick after Stop
  }
  std::remove(path.c_str());
}

// Every TPC-H query must produce identical results through the parallel
// pipelines (per-worker states merged in slot order) as through the
// sequential reference path — on hot chunks and on Data Blocks.
class ParallelTpch : public ::testing::TestWithParam<int> {
 protected:
  static void SetUpTestSuite() {
    tpch::TpchConfig cfg;
    cfg.scale_factor = 0.01;
    cfg.chunk_capacity = 4096;  // several morsels per table
    db_ = tpch::MakeTpch(cfg).release();
    frozen_ = tpch::MakeTpch(cfg).release();
    frozen_->FreezeAll();
    sched_ = new Scheduler(Scheduler::Options{.num_workers = 3});
  }
  static void TearDownTestSuite() {
    delete db_;
    delete frozen_;
    delete sched_;
    db_ = nullptr;
    frozen_ = nullptr;
    sched_ = nullptr;
  }
  static tpch::TpchDatabase* db_;
  static tpch::TpchDatabase* frozen_;
  static Scheduler* sched_;
};

tpch::TpchDatabase* ParallelTpch::db_ = nullptr;
tpch::TpchDatabase* ParallelTpch::frozen_ = nullptr;
Scheduler* ParallelTpch::sched_ = nullptr;

TEST_P(ParallelTpch, MatchesSequentialResults) {
  const int q = GetParam();
  struct Config {
    const tpch::TpchDatabase* db;
    ScanMode mode;
    const char* label;
  };
  const Config configs[2] = {
      {db_, ScanMode::kVectorizedSarg, "hot +SARG"},
      {frozen_, ScanMode::kDataBlocksPsma, "frozen +PSMA"},
  };
  for (const Config& c : configs) {
    tpch::ScanOptions seq;
    seq.mode = c.mode;
    tpch::QueryResult ref = tpch::RunQuery(q, *c.db, seq);
    for (unsigned threads : {3u, 8u}) {
      tpch::ScanOptions par = seq;
      par.ctx.threads = threads;
      par.ctx.scheduler = sched_;
      EXPECT_EQ(tpch::RunQuery(q, *c.db, par).rows, ref.rows)
          << c.label << " threads=" << threads;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllQueries, ParallelTpch, ::testing::Range(1, 23));

// Parallel queries racing the block lifecycle: scans through the worker
// pool while scheduler-backed ticks freeze, evict, compact and tombstone
// underneath them. Results must stay exact throughout, and the fully
// deleted chunks must eventually be reclaimed from the archive.
TEST(Scheduler, ParallelQueriesVsEvictionAndCompactionStress) {
  Scheduler sched(Scheduler::Options{.num_workers = 3});
  Table t = MakeTestTable(12288, 1024);  // 12 chunks
  t.FreezeAll();
  const std::string path = "/tmp/datablocks_scheduler_stress.dbar";
  {
    LifecycleConfig cfg;
    cfg.cold_threshold = 0;
    cfg.freeze_after_cold_epochs = 2;
    cfg.decay_shift = 32;
    cfg.memory_budget_bytes = (t.FrozenBytes() / 12) * 3;
    cfg.tick_interval = std::chrono::milliseconds(1);
    cfg.compact_garbage_ratio = 0.25;
    cfg.scheduler = &sched;
    LifecycleManager mgr(&t, path, cfg);
    mgr.Tick();  // adopt every frozen chunk, evict down to ~3 resident
    // Fully delete 5 of 12 chunks: ticks will tombstone them and compact
    // the archive while the parallel scans below are in flight.
    for (size_t c = 0; c < 5; ++c)
      for (uint32_t r = 0; r < t.chunk_rows(c); ++r) t.Delete(MakeRowId(c, r));
    const int64_t expect_count = 7 * 1024;
    mgr.Start();

    std::atomic<bool> failed{false};
    const Table* one[] = {&t};
    auto parallel_scan_count = [&] {
      auto states = ParallelScan<int64_t>(
          one, {0, 1}, {}, ScanMode::kDataBlocks, /*num_threads=*/3,
          [] { return int64_t{0}; },
          [](int64_t& count, const Batch& b) { count += b.count; },
          TableScanner::kDefaultVectorSize, BestIsa(), &sched);
      int64_t total = 0;
      for (int64_t s : states) total += s;
      return total;
    };
    // The scan slots, the point reader and the lifecycle ticks all share
    // the 3-worker pool (plus this thread and the reader thread).
    std::thread point_reader([&] {
      Rng rng(23);
      for (int i = 0; i < 1500; ++i) {
        uint64_t chunk = uint64_t(rng.Uniform(5, 11));
        uint32_t row = uint32_t(rng.Uniform(0, 1023));
        if (t.GetInt(MakeRowId(chunk, row), 0) !=
            int64_t(chunk) * 1024 + row) {
          failed = true;
        }
      }
    });
    for (int i = 0; i < 8; ++i) {
      if (parallel_scan_count() != expect_count) failed = true;
    }
    point_reader.join();
    mgr.Stop();
    EXPECT_FALSE(failed.load());

    // Quiesced now: whatever the racing ticks could not tombstone (chunks
    // transiently pinned by the scans) is reclaimed by one explicit pass.
    mgr.CompactArchive();
    LifecycleStats s = mgr.stats();
    EXPECT_EQ(s.tombstoned, 5u);
    EXPECT_EQ(s.reclaimed_blocks, 5u);
    EXPECT_GE(s.compactions, 1u);
    EXPECT_EQ(parallel_scan_count(), expect_count);
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace datablocks
