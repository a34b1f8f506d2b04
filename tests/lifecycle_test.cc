// Block lifecycle subsystem: temperature-driven automatic freezing,
// archival eviction under a memory budget, transparent reload on scans and
// point accesses, and safety of eviction concurrent with scans.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "exec/parallel_scan.h"
#include "lifecycle/lifecycle_manager.h"
#include "test_table_util.h"
#include "tpcc/tpcc_db.h"

namespace datablocks {
namespace {

Table MakeTable(uint32_t n, uint32_t chunk_capacity) {
  return MakeTestTable(n, chunk_capacity);
}

/// Policy that freezes a full chunk after two epochs without accesses.
LifecycleConfig QuickCooling() {
  LifecycleConfig cfg;
  cfg.cold_threshold = 0;
  cfg.freeze_after_cold_epochs = 2;
  cfg.decay_shift = 32;  // clocks reset every epoch
  return cfg;
}

std::string TempArchive(const char* name) {
  return std::string("/tmp/datablocks_lifecycle_") + name + ".dbar";
}

TEST(Lifecycle, ChunksFreezeAutomaticallyAfterCooling) {
  Table t = MakeTable(1000, 256);  // 3 full chunks + hot tail
  ASSERT_EQ(t.num_chunks(), 4u);
  const std::string path = TempArchive("freeze");
  {
    LifecycleManager mgr(&t, path, QuickCooling());
    // Epoch 1: insert clocks still warm -> nothing freezes.
    mgr.Tick();
    EXPECT_EQ(mgr.stats().freezes, 0u);
    // Two cold epochs -> all full chunks freeze; the tail stays hot.
    mgr.Tick();
    mgr.Tick();
    EXPECT_EQ(mgr.stats().freezes, 3u);
    for (size_t c = 0; c < 3; ++c)
      EXPECT_EQ(t.chunk_state(c), ChunkState::kFrozen) << c;
    EXPECT_EQ(t.chunk_state(3), ChunkState::kHot);
    // Frozen blocks were archived at freeze time.
    EXPECT_EQ(mgr.stats().archived_blocks, 3u);
  }
  std::remove(path.c_str());
}

TEST(Lifecycle, PointAccessesKeepChunksHot) {
  Table t = MakeTable(512, 256);  // 2 full chunks
  const std::string path = TempArchive("hot");
  {
    LifecycleManager mgr(&t, path, QuickCooling());
    for (int e = 0; e < 6; ++e) {
      // Keep chunk 0 warm with point reads; chunk 1 cools down.
      (void)t.GetInt(MakeRowId(0, 5), 1);
      mgr.Tick();
    }
    EXPECT_EQ(t.chunk_state(0), ChunkState::kHot);
    EXPECT_EQ(t.chunk_state(1), ChunkState::kFrozen);
    // Once the reads stop, chunk 0 freezes too.
    for (int e = 0; e < 3; ++e) mgr.Tick();
    EXPECT_EQ(t.chunk_state(0), ChunkState::kFrozen);
  }
  std::remove(path.c_str());
}

TEST(Lifecycle, PinnedChunksAreNotFrozen) {
  Table t = MakeTable(512, 256);
  const std::string path = TempArchive("pinned");
  {
    LifecycleManager mgr(&t, path, QuickCooling());
    t.PinChunk(0);
    for (int e = 0; e < 5; ++e) mgr.Tick();
    EXPECT_EQ(t.chunk_state(0), ChunkState::kHot);  // pin blocks the freeze
    EXPECT_EQ(t.chunk_state(1), ChunkState::kFrozen);
    t.UnpinChunk(0);
    for (int e = 0; e < 3; ++e) mgr.Tick();
    EXPECT_EQ(t.chunk_state(0), ChunkState::kFrozen);
  }
  std::remove(path.c_str());
}

TEST(Lifecycle, EvictsUnderMemoryBudgetAndReloadsTransparently) {
  Table t = MakeTable(4096, 512);  // 8 full chunks
  ScanResult before = FullScan(t);
  RowId probe = MakeRowId(1, 100);
  int64_t probe_val = t.GetInt(probe, 0);
  std::string probe_str(t.GetStringView(probe, 2));

  const std::string path = TempArchive("evict");
  {
    LifecycleConfig cfg = QuickCooling();
    cfg.freeze_partial_tail = true;
    cfg.memory_budget_bytes = 0;  // evict every frozen block
    LifecycleManager mgr(&t, path, cfg);
    for (int e = 0; e < 6; ++e) mgr.Tick();

    LifecycleStats s = mgr.stats();
    EXPECT_EQ(s.freezes, 8u);
    EXPECT_GE(s.evictions, 8u);
    EXPECT_EQ(s.resident_bytes, 0u);
    EXPECT_EQ(t.FrozenBytes(), 0u);  // nothing resident
    for (size_t c = 0; c < t.num_chunks(); ++c)
      EXPECT_EQ(t.chunk_state(c), ChunkState::kEvicted) << c;

    // Point access on an evicted chunk transparently reloads it.
    EXPECT_EQ(t.GetInt(probe, 0), probe_val);
    EXPECT_EQ(t.GetStringView(probe, 2), probe_str);
    EXPECT_GT(mgr.stats().reloads, 0u);

    // A full scan over the evicted table matches the never-frozen scan.
    mgr.Tick();  // re-evict the probe's chunk
    EXPECT_TRUE(FullScan(t) == before);
    EXPECT_TRUE(FullScan(t, ScanMode::kJit) == before);

    // Deletes on evicted chunks do NOT reload the block.
    uint64_t reloads_before_delete = mgr.stats().reloads;
    mgr.Tick();
    t.Delete(MakeRowId(2, 3));
    EXPECT_EQ(mgr.stats().reloads, reloads_before_delete);
    ScanResult after_delete = FullScan(t);
    EXPECT_EQ(after_delete.count, before.count - 1);
  }
  // Manager teardown restores a fully-resident, self-contained table.
  for (size_t c = 0; c < t.num_chunks(); ++c)
    EXPECT_EQ(t.chunk_state(c), ChunkState::kFrozen) << c;
  EXPECT_GT(t.FrozenBytes(), 0u);
  std::remove(path.c_str());
}

TEST(Lifecycle, AdoptsManuallyFrozenChunksForEviction) {
  Table t = MakeTable(2048, 512);
  t.FreezeAll();
  const std::string path = TempArchive("adopt");
  {
    LifecycleConfig cfg = QuickCooling();
    cfg.memory_budget_bytes = 0;
    LifecycleManager mgr(&t, path, cfg);
    mgr.Tick();
    LifecycleStats s = mgr.stats();
    EXPECT_EQ(s.adopted, 4u);
    EXPECT_GE(s.evictions, 4u);
    for (size_t c = 0; c < t.num_chunks(); ++c)
      EXPECT_EQ(t.chunk_state(c), ChunkState::kEvicted) << c;
  }
  std::remove(path.c_str());
}

TEST(Lifecycle, LruKeepsRecentlyTouchedBlocksResident) {
  Table t = MakeTable(4096, 512);  // 8 chunks
  t.FreezeAll();
  const std::string path = TempArchive("lru");
  {
    LifecycleConfig cfg = QuickCooling();
    // Budget for roughly half the blocks.
    cfg.memory_budget_bytes = t.FrozenBytes() / 2;
    LifecycleManager mgr(&t, path, cfg);
    for (int e = 0; e < 3; ++e) {
      // Touch chunks 6 and 7 every epoch.
      (void)t.GetInt(MakeRowId(6, 1), 1);
      (void)t.GetInt(MakeRowId(7, 1), 1);
      mgr.Tick();
    }
    // The recently-touched chunks survived; some cold chunk was evicted.
    EXPECT_EQ(t.chunk_state(6), ChunkState::kFrozen);
    EXPECT_EQ(t.chunk_state(7), ChunkState::kFrozen);
    EXPECT_GT(mgr.stats().evictions, 0u);
    EXPECT_LE(mgr.stats().resident_bytes, cfg.memory_budget_bytes);
  }
  std::remove(path.c_str());
}

// Acceptance: on a TPC-C-populated table with deletes and string columns,
// chunks freeze automatically after cooling, evict under a memory budget,
// and a subsequent full-table scan returns results identical to the
// never-evicted table.
TEST(Lifecycle, TpccTablesSurviveFullLifecycleWithIdenticalScans) {
  tpcc::TpccConfig cfg;
  cfg.num_warehouses = 1;
  cfg.num_items = 2000;
  cfg.customers_per_district = 60;
  cfg.orders_per_district = 60;
  cfg.chunk_capacity = 1024;
  tpcc::TpccDatabase db(cfg);
  db.Load();

  // OLTP traffic: creates hot-tail inserts, deletes in neworder (Delivery)
  // and in-place updates on order/orderline.
  Rng rng(123);
  for (int i = 0; i < 400; ++i) db.RunMixedTransaction(rng);

  // Extra deletes on the string-bearing orderline table so the archived
  // blocks carry both dictionaries and delete bitmaps.
  for (uint32_t r = 0; r < db.orderline.chunk_rows(0); r += 11)
    db.orderline.Delete(MakeRowId(0, r));

  // Per-table scans including each table's string column where it has one:
  // orderline.dist_info (9), history.data (7).
  struct Target {
    const Table* table;
    std::vector<uint32_t> cols;
    int str_slot;  // index into cols of a string column, -1 if none
  };
  std::vector<Target> targets = {
      {&db.orderline, {0, 4, 9}, 2},
      {&db.neworder, {0, 1, 2}, -1},
      {&db.order, {0, 3, 6}, -1},
      {&db.history, {0, 6, 7}, 2},
  };
  auto scan_tables = [&] {
    std::vector<ScanResult> out;
    for (const Target& tg : targets) {
      TableScanner scan(*tg.table, tg.cols, {}, ScanMode::kDataBlocks);
      Batch b;
      ScanResult r;
      while (scan.Next(&b)) {
        for (uint32_t i = 0; i < b.count; ++i) {
          ++r.count;
          for (int s = 0; s < 2; ++s) {
            const ColumnVector& cv = b.cols[size_t(s)];
            r.sum += cv.i32.empty() ? (cv.i64.empty() ? 0 : cv.i64[i])
                                    : cv.i32[i];
          }
          if (tg.str_slot >= 0) {
            r.str_hash ^= std::hash<std::string_view>()(
                              b.cols[size_t(tg.str_slot)].Str(i)) +
                          0x9e3779b9 + (r.str_hash << 6) + (r.str_hash >> 2);
          }
        }
      }
      out.push_back(r);
    }
    return out;
  };

  std::vector<ScanResult> before = scan_tables();
  std::string msg;
  ASSERT_TRUE(db.CheckConsistency(&msg)) << msg;

  LifecycleConfig lcfg = QuickCooling();
  lcfg.freeze_partial_tail = true;
  lcfg.memory_budget_bytes = 0;  // evict everything that freezes
  db.EnableLifecycle(lcfg, "/tmp");
  for (int e = 0; e < 8; ++e) db.LifecycleTick();

  // The whole lifecycle ran: chunks froze and were evicted.
  uint64_t total_freezes = 0, total_evictions = 0;
  for (LifecycleManager* m : db.lifecycle_managers()) {
    total_freezes += m->stats().freezes;
    total_evictions += m->stats().evictions;
  }
  EXPECT_GT(total_freezes, 0u);
  EXPECT_GT(total_evictions, 0u);
  for (size_t c = 0; c < db.orderline.num_chunks(); ++c)
    EXPECT_TRUE(db.orderline.is_frozen(c));

  // Scans over the frozen+evicted tables are identical.
  std::vector<ScanResult> after = scan_tables();
  for (size_t i = 0; i < before.size(); ++i)
    EXPECT_TRUE(before[i] == after[i]) << "table " << i;

  // OLTP keeps running on the lifecycle-managed database: updates to
  // frozen rows become delete + reinsert, point reads reload evicted
  // blocks, and the TPC-C invariants still hold.
  for (int i = 0; i < 200; ++i) db.RunMixedTransaction(rng);
  for (int e = 0; e < 3; ++e) db.LifecycleTick();
  ASSERT_TRUE(db.CheckConsistency(&msg)) << msg;

  for (const char* name : {"tpcc_history", "tpcc_neworder", "tpcc_order",
                           "tpcc_orderline"}) {
    std::remove((std::string("/tmp/") + name + ".dbar").c_str());
  }
}

// Tentpole acceptance: a scan whose predicate excludes every evicted
// block's SMA range performs ZERO archive payload reads — the resident
// BlockSummary answers the pruning question, and the blocks are neither
// pinned, reloaded nor promoted in the LRU.
TEST(Lifecycle, SummaryPruningSkipsEvictedBlocksWithoutArchiveReads) {
  Table t = MakeTable(4096, 512);  // 8 full chunks, id == insert index
  const std::string path = TempArchive("summary_prune");
  {
    LifecycleConfig cfg = QuickCooling();
    cfg.memory_budget_bytes = 0;  // evict every frozen block
    LifecycleManager mgr(&t, path, cfg);
    for (int e = 0; e < 4; ++e) mgr.Tick();
    for (size_t c = 0; c < t.num_chunks(); ++c)
      ASSERT_EQ(t.chunk_state(c), ChunkState::kEvicted) << c;
    for (size_t c = 0; c < t.num_chunks(); ++c)
      ASSERT_NE(t.block_summary(c), nullptr) << c;

    const uint64_t reads_before = mgr.stats().archive_reads;
    const uint64_t reloads_before = mgr.stats().reloads;

    // ids are 0..4095; this predicate lies outside every block's SMA range.
    for (ScanMode mode : {ScanMode::kDataBlocks, ScanMode::kDataBlocksPsma,
                          ScanMode::kVectorizedSarg}) {
      TableScanner scan(t, {0, 1}, {Predicate::Gt(0, Value::Int(100000))},
                        mode);
      Batch b;
      uint64_t found = 0;
      while (scan.Next(&b)) found += b.count;
      EXPECT_EQ(found, 0u);
      EXPECT_EQ(scan.chunks_skipped(), t.num_chunks());
      EXPECT_EQ(scan.evicted_chunks_skipped(), t.num_chunks());
    }
    // No payload was fetched, nothing was reloaded, nothing was promoted.
    EXPECT_EQ(mgr.stats().archive_reads, reads_before);
    EXPECT_EQ(mgr.stats().reloads, reloads_before);
    for (size_t c = 0; c < t.num_chunks(); ++c)
      EXPECT_EQ(t.chunk_state(c), ChunkState::kEvicted) << c;

    // A predicate inside exactly one block's range reloads exactly that
    // block; the other seven stay summary-pruned and evicted.
    TableScanner scan(t, {0, 1},
                      {Predicate::Between(0, Value::Int(1024 + 10),
                                          Value::Int(1024 + 19))},
                      ScanMode::kDataBlocks);
    Batch b;
    uint64_t found = 0;
    while (scan.Next(&b)) found += b.count;
    EXPECT_EQ(found, 10u);
    EXPECT_EQ(scan.chunks_skipped(), t.num_chunks() - 1);
    EXPECT_EQ(scan.evicted_chunks_skipped(), t.num_chunks() - 1);
    EXPECT_EQ(mgr.stats().archive_reads, reads_before + 1);
    EXPECT_EQ(t.chunk_state(2), ChunkState::kFrozen);  // reloaded
    for (size_t c : {size_t(0), size_t(1), size_t(3)})
      EXPECT_EQ(t.chunk_state(c), ChunkState::kEvicted) << c;
  }
  std::remove(path.c_str());
}

// Summaries survive in SMA-only form when PSMA retention is disabled, and
// summary pruning still never touches the archive.
TEST(Lifecycle, SummaryPruningWorksWithoutResidentPsma) {
  Table t = MakeTable(2048, 512);
  const std::string path = TempArchive("summary_nopsma");
  {
    LifecycleConfig cfg = QuickCooling();
    cfg.memory_budget_bytes = 0;
    cfg.keep_summary_psma = false;
    LifecycleManager mgr(&t, path, cfg);
    for (int e = 0; e < 4; ++e) mgr.Tick();
    const uint64_t reads_before = mgr.stats().archive_reads;
    TableScanner scan(t, {0}, {Predicate::Lt(0, Value::Int(-5))},
                      ScanMode::kDataBlocksPsma);
    Batch b;
    while (scan.Next(&b)) {
    }
    EXPECT_EQ(scan.evicted_chunks_skipped(), t.num_chunks());
    EXPECT_EQ(mgr.stats().archive_reads, reads_before);
    EXPECT_GT(mgr.stats().summary_bytes, 0u);
  }
  std::remove(path.c_str());
}

// A table rebuilt by BlockArchive::Restore already carries the archived
// summaries; a manager adopting it must reuse them (summaries are
// install-once) and still prune evicted blocks without archive reads.
TEST(Lifecycle, RestoredTablesReuseArchivedSummaries) {
  Table orig = MakeTestTable(2048, 512, /*delete_every=*/0, /*freeze=*/true);
  const std::string save_path = TempArchive("restore_save");
  ASSERT_TRUE(BlockArchive::Save(orig, save_path).ok());
  Table t = BlockArchive::Restore("r", TestTableSchema(), save_path, 512).value();
  for (size_t c = 0; c < t.num_chunks(); ++c)
    ASSERT_NE(t.block_summary(c), nullptr) << c;

  const std::string path = TempArchive("restore_adopt");
  {
    LifecycleConfig cfg = QuickCooling();
    cfg.memory_budget_bytes = 0;
    LifecycleManager mgr(&t, path, cfg);
    mgr.Tick();  // adopt + evict everything
    EXPECT_EQ(mgr.stats().adopted, t.num_chunks());
    const uint64_t reads = mgr.stats().archive_reads;
    TableScanner scan(t, {0}, {Predicate::Gt(0, Value::Int(1 << 20))},
                      ScanMode::kDataBlocks);
    Batch b;
    while (scan.Next(&b)) {
    }
    EXPECT_EQ(scan.evicted_chunks_skipped(), t.num_chunks());
    EXPECT_EQ(mgr.stats().archive_reads, reads);
  }
  std::remove(save_path.c_str());
  std::remove(path.c_str());
}

// Archive compaction/GC: fully-deleted chunks are tombstoned (their payload
// dropped from memory AND the archive — no reload, no residual RAM) and
// their archive blocks reclaimed; live evicted blocks survive the rewrite
// and stay readable.
TEST(Lifecycle, CompactionReclaimsFullyDeletedBlocks) {
  Table t = MakeTable(4096, 512);  // 8 full chunks
  const std::string path = TempArchive("compact");
  {
    LifecycleConfig cfg = QuickCooling();
    cfg.memory_budget_bytes = 0;
    cfg.compact_garbage_ratio = 2.0;  // only explicit compaction
    LifecycleManager mgr(&t, path, cfg);
    for (int e = 0; e < 4; ++e) mgr.Tick();
    ASSERT_EQ(mgr.stats().archived_blocks, 8u);
    const uint64_t bytes_before = mgr.stats().archive_bytes;

    // Fully delete chunks 0..2 (deletes on evicted chunks do not reload).
    for (size_t c = 0; c < 3; ++c)
      for (uint32_t r = 0; r < t.chunk_rows(c); ++r)
        t.Delete(MakeRowId(c, r));
    EXPECT_NEAR(mgr.GarbageRatio(), 0.0, 1e-9);  // garbage counted lazily

    EXPECT_EQ(mgr.CompactArchive(), 3u);
    LifecycleStats s = mgr.stats();
    EXPECT_EQ(s.compactions, 1u);
    EXPECT_EQ(s.reclaimed_blocks, 3u);
    EXPECT_GT(s.reclaimed_bytes, 0u);
    EXPECT_LT(s.archive_bytes, bytes_before);
    EXPECT_EQ(s.archived_blocks, 5u);
    EXPECT_NEAR(mgr.GarbageRatio(), 0.0, 1e-9);

    // Detached chunks are tombstones — payload gone for good, only the
    // delete bitmap remains; the rest are still evicted and reload
    // correctly from the rewritten archive.
    for (size_t c = 0; c < 3; ++c)
      EXPECT_EQ(t.chunk_state(c), ChunkState::kTombstone) << c;
    EXPECT_EQ(s.tombstoned, 3u);
    EXPECT_EQ(t.FrozenBytes(), 0u);  // tombstones keep nothing resident
    ScanResult r = FullScan(t);
    EXPECT_EQ(r.count, int64_t(4096 - 3 * 512));

    // Fully-deleted chunks produce nothing and are skipped without a pin in
    // every mode (they must never be re-archived either).
    TableScanner scan(t, {0, 1, 2}, {}, ScanMode::kJit);
    Batch b;
    int64_t count = 0;
    while (scan.Next(&b)) count += b.count;
    EXPECT_EQ(count, r.count);
    EXPECT_EQ(scan.chunks_skipped(), 3u);
    mgr.Tick();
    EXPECT_EQ(mgr.stats().archived_blocks, 5u);  // not re-adopted
  }
  std::remove(path.c_str());
}

// The tombstone transition itself: only fully-deleted frozen/evicted
// chunks qualify, pins block it, and a tombstoned chunk answers scans and
// visibility checks from the side bitmap alone.
TEST(Lifecycle, TombstoneDropsPayloadOfFullyDeletedChunks) {
  Table t = MakeTable(1024, 512);  // 2 full chunks
  t.FreezeAll();
  const uint64_t frozen_before = t.FrozenBytes();

  EXPECT_FALSE(t.TombstoneChunk(0));  // not fully deleted yet
  for (uint32_t r = 0; r < 512; ++r) t.Delete(MakeRowId(0, r));

  t.PinChunk(0);
  EXPECT_FALSE(t.TombstoneChunk(0));  // pinned readers win
  EXPECT_EQ(t.chunk_state(0), ChunkState::kFrozen);
  t.UnpinChunk(0);

  EXPECT_TRUE(t.TombstoneChunk(0));
  EXPECT_EQ(t.chunk_state(0), ChunkState::kTombstone);
  EXPECT_EQ(t.tombstones(), 1u);
  EXPECT_FALSE(t.TombstoneChunk(0));  // terminal: no second transition
  EXPECT_LT(t.FrozenBytes(), frozen_before);
  EXPECT_EQ(t.frozen_block(0), nullptr);

  // Scans skip the tombstone pin-free in every mode; chunk 1 is unharmed.
  for (ScanMode mode : {ScanMode::kJit, ScanMode::kVectorized,
                        ScanMode::kDataBlocks, ScanMode::kDataBlocksPsma}) {
    TableScanner scan(t, {0, 1, 2}, {}, mode);
    Batch b;
    int64_t count = 0;
    while (scan.Next(&b)) count += b.count;
    EXPECT_EQ(count, 512) << ScanModeName(mode);
    EXPECT_GE(scan.chunks_skipped(), 1u) << ScanModeName(mode);
  }
  // Visibility and repeated deletes keep working off the side bitmap.
  EXPECT_FALSE(t.IsVisible(MakeRowId(0, 17)));
  t.Delete(MakeRowId(0, 17));  // idempotent no-op
  EXPECT_EQ(t.num_visible(), 512u);
}

// Automatic compaction: once the dead fraction of the archive crosses
// config.compact_garbage_ratio, a Tick rewrites it without being asked.
TEST(Lifecycle, CompactionTriggersOnGarbageRatio) {
  Table t = MakeTable(4096, 512);
  const std::string path = TempArchive("auto_compact");
  {
    LifecycleConfig cfg = QuickCooling();
    cfg.memory_budget_bytes = 0;
    cfg.compact_garbage_ratio = 0.5;
    LifecycleManager mgr(&t, path, cfg);
    for (int e = 0; e < 4; ++e) mgr.Tick();
    ASSERT_EQ(mgr.stats().archived_blocks, 8u);

    // Fully delete 3 of 8 blocks: under the 0.5 threshold -> no rewrite.
    for (size_t c = 0; c < 3; ++c)
      for (uint32_t r = 0; r < t.chunk_rows(c); ++r)
        t.Delete(MakeRowId(c, r));
    mgr.Tick();
    EXPECT_EQ(mgr.stats().compactions, 0u);

    // Two more fully-deleted blocks push the ratio past 0.5.
    for (size_t c = 3; c < 5; ++c)
      for (uint32_t r = 0; r < t.chunk_rows(c); ++r)
        t.Delete(MakeRowId(c, r));
    mgr.Tick();
    LifecycleStats s = mgr.stats();
    EXPECT_EQ(s.compactions, 1u);
    EXPECT_EQ(s.reclaimed_blocks, 5u);
    EXPECT_EQ(s.archived_blocks, 3u);
    EXPECT_TRUE(FullScan(t) ==
                FullScan(t, ScanMode::kJit));  // archive still consistent
  }
  std::remove(path.c_str());
}

// Archive compaction racing scans, reloads and point accesses: the swap of
// the archive object and the chunk -> block-id remap must never strand an
// in-flight reload or change scan results. (This is the test the TSan CI
// leg leans on for the compaction handshake.)
TEST(Lifecycle, CompactionConcurrentWithScansIsConsistent) {
  Table t = MakeTable(12288, 1024);  // 12 chunks
  t.FreezeAll();
  const std::string path = TempArchive("compact_stress");
  {
    LifecycleConfig cfg = QuickCooling();
    cfg.memory_budget_bytes = (t.FrozenBytes() / 12) * 3;
    cfg.tick_interval = std::chrono::milliseconds(1);
    cfg.compact_garbage_ratio = 0.25;
    LifecycleManager mgr(&t, path, cfg);
    mgr.Tick();  // adopt every frozen chunk, evict down to ~3 resident
    // Fully delete 5 of 12 chunks: ~42% of the archive becomes garbage, so
    // the first background tick compacts while the workers are scanning.
    for (size_t c = 0; c < 5; ++c)
      for (uint32_t r = 0; r < t.chunk_rows(c); ++r)
        t.Delete(MakeRowId(c, r));
    ScanResult expect = FullScan(t);
    mgr.Start();

    std::atomic<bool> failed{false};
    auto scan_worker = [&] {
      for (int i = 0; i < 6; ++i) {
        if (!(FullScan(t) == expect)) failed = true;
      }
    };
    auto point_worker = [&] {
      Rng rng(23);
      for (int i = 0; i < 2000; ++i) {
        uint64_t chunk = uint64_t(rng.Uniform(5, 11));
        uint32_t row = uint32_t(rng.Uniform(0, 1023));
        if (t.GetInt(MakeRowId(chunk, row), 0) !=
            int64_t(chunk) * 1024 + row) {
          failed = true;
        }
      }
    };
    std::vector<std::thread> workers;
    workers.emplace_back(scan_worker);
    workers.emplace_back(scan_worker);
    workers.emplace_back(point_worker);
    for (auto& w : workers) w.join();
    mgr.Stop();

    EXPECT_FALSE(failed.load());
    EXPECT_GE(mgr.stats().compactions, 1u);
    EXPECT_EQ(mgr.stats().reclaimed_blocks, 5u);
    EXPECT_TRUE(FullScan(t) == expect);
  }
  std::remove(path.c_str());
}

TEST(Lifecycle, ScansConcurrentWithEvictionReturnConsistentResults) {
  Table t = MakeTable(20480, 1024);  // 20 chunks
  t.FreezeAll();
  ScanResult expect = FullScan(t);

  const std::string path = TempArchive("stress");
  {
    LifecycleConfig cfg = QuickCooling();
    // Budget for ~3 blocks: the background thread constantly evicts what
    // scans keep reloading.
    cfg.memory_budget_bytes = (t.FrozenBytes() / 20) * 3;
    cfg.tick_interval = std::chrono::milliseconds(1);
    LifecycleManager mgr(&t, path, cfg);
    mgr.Start();

    std::atomic<bool> failed{false};
    std::atomic<int> scans_done{0};
    auto scan_worker = [&] {
      for (int i = 0; i < 6; ++i) {
        ScanResult r = FullScan(t);
        if (!(r == expect)) failed = true;
        scans_done.fetch_add(1);
      }
    };
    auto point_worker = [&] {
      Rng rng(17);
      for (int i = 0; i < 3000; ++i) {
        uint64_t chunk = uint64_t(rng.Uniform(0, int64_t(t.num_chunks()) - 1));
        uint32_t row = uint32_t(rng.Uniform(0, 1023));
        RowId id = MakeRowId(chunk, row);
        // The id column stores the global insert index.
        if (t.GetInt(id, 0) != int64_t(chunk) * 1024 + row) failed = true;
        (void)t.GetStringView(id, 2);
      }
    };
    auto parallel_worker = [&] {
      const Table* one[] = {&t};
      for (int i = 0; i < 3; ++i) {
        struct Agg { int64_t count = 0; };
        auto states = ParallelScan<Agg>(
            one, {1}, {}, ScanMode::kDataBlocks, 4, [] { return Agg{}; },
            [](Agg& a, const Batch& b) { a.count += b.count; });
        int64_t total = 0;
        for (const Agg& a : states) total += a.count;
        if (total != expect.count) failed = true;
      }
    };

    std::vector<std::thread> workers;
    workers.emplace_back(scan_worker);
    workers.emplace_back(scan_worker);
    workers.emplace_back(point_worker);
    workers.emplace_back(parallel_worker);
    for (auto& w : workers) w.join();
    mgr.Stop();

    EXPECT_FALSE(failed.load());
    EXPECT_GT(scans_done.load(), 0);
    // The churn actually happened.
    EXPECT_GT(mgr.stats().evictions, 0u);
    EXPECT_GT(mgr.stats().reloads, 0u);
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace datablocks
