#ifndef DATABLOCKS_EXEC_PARTITIONED_AGG_H_
#define DATABLOCKS_EXEC_PARTITIONED_AGG_H_

// Partitioned aggregation states for the morsel-parallel query pipelines.
//
// The per-slot-state model of parallel_scan.h replicates the whole
// aggregation state into every parallelism slot and merges the copies in
// slot order. That is the right shape for small or sparse states, but a
// dense rows-sized vector (per-order / per-customer / per-supplier
// aggregates over dbgen's dense key spaces) replicated S times costs
// O(rows x slots) memory plus an O(rows x slots) merge — growing with the
// thread count and burying the scan-on-compressed-data wins the Data
// Blocks layout pays for. This header provides the two state shapes that
// kill that blow-up:
//
//  * PartitionedDense<T, U, Apply>: ONE dense T vector over [0, domain),
//    partitioned into contiguous power-of-two key ranges, each with its
//    own lock. Each slot appends (key, update) pairs to a small flat spill
//    buffer (the hot path is a raw cursor store); a full buffer is
//    drained partition-wise — grouped by the high key bits, applied under
//    the owning partition's lock — and once more at end-of-slot (before
//    TaskGroup::Wait returns). Memory is O(domain) + O(slots) bounded
//    buffers, and there is no cross-slot merge at all. The
//    DensePartitionedScan driver (exec/parallel_scan.h) runs it over one
//    table and over a sharded table's shards alike.
//
//  * SharedStoreDense<T>: dense vectors filled by plain stores — either
//    one writer per element (dense per-order sinks) or idempotent
//    duplicates (every writer stores the same value, e.g. "customer has
//    an order"). Relaxed atomic stores make the shared vector race-free
//    with zero routing, zero locks and zero merge: one O(domain) copy.
//
//  * AggHashTable<V> / PartitionedAggTable<V>: sparse group-bys. Each
//    worker pre-aggregates into a thin open-addressing table (keyed on
//    Hash64 from exec/hash_table.h) that is itself hash-partitioned, so
//    the final merge folds per-worker partitions pairwise — partitions are
//    disjoint and merge in parallel on the scheduler.
//
// Determinism contract (the PR 4 invariant): Apply / the merge fold must
// be exact and commutative+associative (integer sums, bitwise or, min/max,
// the Q21 fold). Then the result is identical to the sequential path no
// matter which worker claimed which morsel or in which order spills were
// flushed.
//
// All state allocated by this component is byte-accounted (aggstate::*),
// so benches and tests can assert the O(rows x slots) -> O(rows) win.

#include <atomic>
#include <cassert>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "exec/batch.h"
#include "exec/hash_table.h"
#include "exec/scheduler.h"

namespace datablocks {

// ---------------------------------------------------------------------------
// Aggregation-state byte accounting
// ---------------------------------------------------------------------------

namespace aggstate {

/// Bytes currently held by the engine's aggregation structures, split by
/// shape, plus peaks since the last ResetPeaks(). "Held by the engine"
/// means until PartitionedDense::Take() hands the dense vector to the
/// caller / until a table is destroyed; the peak therefore captures the
/// scan+merge phase, which is where the old per-slot replication paid
/// O(rows x slots).
struct Stats {
  uint64_t dense_bytes = 0;
  uint64_t spill_bytes = 0;
  uint64_t table_bytes = 0;
  uint64_t peak_dense_bytes = 0;
  uint64_t peak_spill_bytes = 0;
  uint64_t peak_total_bytes = 0;
};

enum class Kind { kDense, kSpill, kTable };

/// Thread-safe; called by the state containers on allocate/release.
void Add(Kind kind, uint64_t bytes);
void Sub(Kind kind, uint64_t bytes);

Stats GetStats();
void ResetPeaks();

/// Re-exports the current Stats onto the process-wide metrics registry as
/// "agg.*_bytes" gauges (exposition only; the atomics above stay the
/// source of truth). Call before rendering the registry.
void ExportGauges();

}  // namespace aggstate

// ---------------------------------------------------------------------------
// Dense partitioned state
// ---------------------------------------------------------------------------

/// Reusable Apply functors for the common dense accumulations.
struct ApplyAdd {
  template <typename T, typename U>
  void operator()(T& elem, const U& u) const {
    elem += u;
  }
};
struct ApplyOr {
  template <typename T, typename U>
  void operator()(T& elem, const U& u) const {
    elem |= u;
  }
};

/// One dense T vector over [0, domain), shared by `slots` parallelism
/// slots and lock-partitioned into up to kMaxPartitions contiguous
/// power-of-two key ranges. Every slot accumulates through its own Sink,
/// which appends (key, U) updates to one flat spill buffer and drains it
/// partition-wise under the owning partitions' locks; a sink streaming
/// into a single partition upgrades to direct applies under that
/// partition's lock. With slots == 1 the sink applies directly (the
/// sequential fast path — no buffers, no locks).
///
/// Apply: (T&, const U&), commutative + associative + exact (see header
/// comment). U is expected to be a small trivially copyable payload.
template <typename T, typename U, typename Apply>
class PartitionedDense {
 public:
  /// Spill entries per slot buffer: total spill memory is bounded by
  /// slots * kSpillCapacity * sizeof(Entry), independent of the domain.
  static constexpr size_t kSpillCapacity = 4096;
  /// Lock-granularity partitions over the key range (independent of the
  /// slot count): finer than the slots so neighbouring morsels — whose
  /// key ranges are adjacent under dbgen clustering — run-lock different
  /// partitions instead of contending for one.
  static constexpr unsigned kMaxPartitions = 64;
  /// Minimum elements per partition. Domains below this collapse to ONE
  /// partition, turning every sink into a run-lock direct-applier (small
  /// states are cache-resident and cheap to apply; fragmenting them into
  /// tiny partitions would push scattered keys onto the radix path for
  /// no contention win).
  static constexpr size_t kMinPartitionSpan = 16384;

  struct Entry {
    uint32_t key;
    U update;
  };

  PartitionedDense(size_t domain, unsigned slots, Apply apply = Apply{},
                   T init = T{})
      : apply_(std::move(apply)),
        dense_(domain, init),
        slots_(slots == 0 ? 1 : slots) {
    assert(domain <= UINT32_MAX);  // spill entries carry 32-bit keys
    // Power-of-two partition spans: routing is one shift per row instead
    // of a division. At most kMaxPartitions partitions cover the domain;
    // partition-to-slot balance is irrelevant (morsel claiming balances
    // the work), partitions only distribute the locks.
    part_shift_ = 0;
    while (domain > 0 &&
           (((domain - 1) >> part_shift_) + 1 > kMaxPartitions ||
            (size_t(1) << part_shift_) < kMinPartitionSpan)) {
      ++part_shift_;
    }
    parts_ = domain == 0 ? 1 : unsigned((domain - 1) >> part_shift_) + 1;
    locks_ = std::make_unique<std::mutex[]>(parts_);
    sinks_.reserve(slots_);
    for (unsigned s = 0; s < slots_; ++s) sinks_.emplace_back(Sink(this));
    aggstate::Add(aggstate::Kind::kDense, dense_.size() * sizeof(T));
  }

  ~PartitionedDense() {
    if (!taken_) {
      aggstate::Sub(aggstate::Kind::kDense, dense_.size() * sizeof(T));
    }
    for (Sink& sink : sinks_) sink.ReleaseBuffers();
  }

  PartitionedDense(const PartitionedDense&) = delete;
  PartitionedDense& operator=(const PartitionedDense&) = delete;

  /// Direct applies under a held run lock before it is released, bounding
  /// how long another slot's flush can block on a hot partition.
  static constexpr uint32_t kMaxDirectRun = 65536;

  class Sink {
   public:
    /// Routes one update to the element's owning partition. Exact-once:
    /// an update is applied directly (single-slot mode, or under the run
    /// lock while this sink streams into one partition), or buffered and
    /// applied by exactly one flush. The buffered hot path is a raw
    /// cursor store — routing happens wholesale at flush time, not per
    /// row.
    void Add(size_t key, U update) {
      PartitionedDense& parent = *parent_;
      if (unsigned(key >> parent.part_shift_) == held_p_) {
        // Run-lock fast path: this sink streams into one partition (the
        // clustered common case) and already holds its lock.
        parent.apply_(parent.dense_[key], update);
        if (++direct_run_ >= kMaxDirectRun) ReleaseHeld();
        return;
      }
      if (cursor_ == nullptr) {  // single-slot mode: no routing, no locks
        parent.apply_(parent.dense_[key], update);
        return;
      }
      *cursor_++ = Entry{uint32_t(key), std::move(update)};
      if (cursor_ == buffer_end_) FlushBuffer();
    }

    /// Drains the spill buffer into the dense vector and releases any run
    /// lock. The parallel drivers call this at end-of-slot, so by the
    /// time TaskGroup::Wait returns every buffered update has been
    /// applied.
    void Flush() {
      if (cursor_ != nullptr) FlushBuffer();
      ReleaseHeld();
    }

    /// Spilled updates currently buffered (not yet applied); test hook.
    size_t pending() const {
      return cursor_ == nullptr ? 0 : size_t(cursor_ - buffer_.get());
    }

   private:
    friend class PartitionedDense;
    static constexpr unsigned kNoPartition = ~0u;

    explicit Sink(PartitionedDense* parent) : parent_(parent) {
      if (parent_->slots_ > 1) {
        // Raw storage, deliberately not value-initialized: a fresh buffer
        // is fully overwritten before it is read.
        buffer_.reset(new Entry[kSpillCapacity]);
        aggstate::Add(aggstate::Kind::kSpill,
                      kSpillCapacity * sizeof(Entry));
        cursor_ = buffer_.get();
        buffer_end_ = cursor_ + kSpillCapacity;
      }
    }

    /// Applies every buffered update: counts per partition, then either
    /// applies the whole buffer under one lock (single-partition buffer —
    /// and keeps that lock as the run lock, switching Add to direct
    /// applies), or radix-scatters entries by partition (branch-free) and
    /// applies each bucket under its lock.
    void FlushBuffer() {
      PartitionedDense& parent = *parent_;
      Entry* const begin = buffer_.get();
      Entry* const end = cursor_;
      cursor_ = begin;
      if (begin == end) return;
      const unsigned shift = parent.part_shift_;
      const unsigned parts = parent.parts_;
      unsigned counts[kMaxPartitions] = {0};
      for (const Entry* e = begin; e != end; ++e) ++counts[e->key >> shift];
      for (unsigned p = 0; p < parts; ++p) {
        if (counts[p] != unsigned(end - begin)) continue;
        // Single-partition buffer: apply in place and enter run mode.
        if (p != held_p_) {
          ReleaseHeld();
          held_ = std::unique_lock<std::mutex>(parent.locks_[p]);
          held_p_ = p;
        }
        direct_run_ = 0;
        for (const Entry* e = begin; e != end; ++e) {
          parent.apply_(parent.dense_[e->key], e->update);
        }
        return;
      }
      ReleaseHeld();  // mixed buffer: scattered keys, stay in buffer mode
      if (scatter_ == nullptr) {
        scatter_.reset(new Entry[kSpillCapacity]);
        aggstate::Add(aggstate::Kind::kSpill,
                      kSpillCapacity * sizeof(Entry));
      }
      Entry* buckets[kMaxPartitions];
      Entry* out = scatter_.get();
      for (unsigned p = 0; p < parts; ++p) {
        buckets[p] = out;
        out += counts[p];
      }
      for (const Entry* e = begin; e != end; ++e) {
        *buckets[e->key >> shift]++ = *e;
      }
      const Entry* bucket_begin = scatter_.get();
      for (unsigned p = 0; p < parts; ++p) {
        if (counts[p] != 0) {
          std::lock_guard<std::mutex> lock(parent.locks_[p]);
          for (const Entry* e = bucket_begin; e != buckets[p]; ++e) {
            parent.apply_(parent.dense_[e->key], e->update);
          }
        }
        bucket_begin = buckets[p];
      }
    }

    void ReleaseHeld() {
      if (held_p_ != kNoPartition) {
        held_.unlock();
        held_ = std::unique_lock<std::mutex>();
        held_p_ = kNoPartition;
        direct_run_ = 0;
      }
    }

    void ReleaseBuffers() {
      ReleaseHeld();
      if (buffer_ != nullptr) {
        aggstate::Sub(aggstate::Kind::kSpill,
                      kSpillCapacity * sizeof(Entry));
        buffer_.reset();
      }
      if (scatter_ != nullptr) {
        aggstate::Sub(aggstate::Kind::kSpill,
                      kSpillCapacity * sizeof(Entry));
        scatter_.reset();
      }
      cursor_ = buffer_end_ = nullptr;
    }

    PartitionedDense* parent_;
    std::unique_ptr<Entry[]> buffer_;   // null in single-slot mode
    std::unique_ptr<Entry[]> scatter_;  // lazy: only mixed buffers need it
    Entry* cursor_ = nullptr;           // next free entry
    Entry* buffer_end_ = nullptr;
    std::unique_lock<std::mutex> held_;  // run lock (see FlushBuffer)
    unsigned held_p_ = kNoPartition;
    uint32_t direct_run_ = 0;
  };

  Sink& sink(unsigned slot) { return sinks_[slot]; }
  unsigned slots() const { return slots_; }
  unsigned partitions() const { return parts_; }
  size_t OwnerOf(size_t key) const { return key >> part_shift_; }

  /// The dense vector; valid once every sink has flushed and the parallel
  /// region has joined.
  const std::vector<T>& dense() const { return dense_; }

  /// Moves the dense vector out (releasing its byte accounting — the
  /// caller owns it now). The state must not be used afterwards.
  std::vector<T> Take() {
    assert(!taken_);
    taken_ = true;
    aggstate::Sub(aggstate::Kind::kDense, dense_.size() * sizeof(T));
    return std::move(dense_);
  }

 private:
  Apply apply_;
  std::vector<T> dense_;
  const unsigned slots_;
  unsigned parts_ = 1;
  unsigned part_shift_ = 0;
  std::unique_ptr<std::mutex[]> locks_;
  std::vector<Sink> sinks_;
  bool taken_ = false;
};

/// One dense T vector over [0, domain) filled by scatter STORES (not
/// read-modify-write accumulations): correct whenever every row that
/// writes an element writes the same value — unique writers (one row per
/// element) or idempotent flags (any number of rows, same value). Stores
/// are relaxed atomics, so concurrent slots share the single vector with
/// no replicas, buffers, locks or merge; the parallel-region join
/// publishes the values. T must be a lock-free atomic size (1/2/4/8-byte
/// trivial types).
template <typename T>
class SharedStoreDense {
 public:
  explicit SharedStoreDense(size_t domain, T init = T{})
      : dense_(domain, init) {
    aggstate::Add(aggstate::Kind::kDense, dense_.size() * sizeof(T));
  }

  ~SharedStoreDense() {
    if (!taken_) {
      aggstate::Sub(aggstate::Kind::kDense, dense_.size() * sizeof(T));
    }
  }

  SharedStoreDense(const SharedStoreDense&) = delete;
  SharedStoreDense& operator=(const SharedStoreDense&) = delete;

  void Store(size_t key, T value) {
    std::atomic_ref<T>(dense_[key]).store(value, std::memory_order_relaxed);
  }

  const std::vector<T>& dense() const { return dense_; }

  /// Moves the vector out (releasing its byte accounting); only valid
  /// after the parallel region joined.
  std::vector<T> Take() {
    assert(!taken_);
    taken_ = true;
    aggstate::Sub(aggstate::Kind::kDense, dense_.size() * sizeof(T));
    return std::move(dense_);
  }

 private:
  std::vector<T> dense_;
  bool taken_ = false;
};

// ---------------------------------------------------------------------------
// Sparse group-by states
// ---------------------------------------------------------------------------

/// Thin open-addressing aggregation table: uint64 keys (kEmptyKey = ~0 is
/// reserved), linear probing on Hash64 (exec/hash_table.h), grown at 50%
/// load. V must be default-constructible; Ref() value-initializes fresh
/// entries, which is the identity for +=-style folds.
template <typename V>
class AggHashTable {
 public:
  static constexpr uint64_t kEmptyKey = ~uint64_t{0};

  explicit AggHashTable(size_t expected = 0) {
    size_t cap = 16;
    while (cap < expected * 2) cap <<= 1;
    Allocate(cap);
  }

  ~AggHashTable() { Release(); }

  AggHashTable(AggHashTable&& o) noexcept
      : keys_(std::move(o.keys_)),
        vals_(std::move(o.vals_)),
        mask_(o.mask_),
        size_(o.size_) {
    o.keys_.clear();
    o.vals_.clear();
    o.mask_ = 0;
    o.size_ = 0;
  }

  AggHashTable& operator=(AggHashTable&& o) noexcept {
    if (this != &o) {
      Release();
      keys_ = std::move(o.keys_);
      vals_ = std::move(o.vals_);
      mask_ = o.mask_;
      size_ = o.size_;
      o.keys_.clear();
      o.vals_.clear();
      o.mask_ = 0;
      o.size_ = 0;
    }
    return *this;
  }

  AggHashTable(const AggHashTable&) = delete;
  AggHashTable& operator=(const AggHashTable&) = delete;

  /// The group state for `key`, value-initialized on first touch.
  V& Ref(uint64_t key) { return RefHashed(key, Hash64(key)); }

  /// Ref with the hash precomputed (the partitioned wrapper hashes once
  /// for routing and probing).
  V& RefHashed(uint64_t key, uint64_t hash) {
    assert(key != kEmptyKey);
    size_t i = ProbeSlot(key, hash);
    if (keys_[i] != key) {
      if (size_ + 1 > (mask_ + 1) / 2) {
        Grow();
        i = ProbeSlot(key, hash);
      }
      keys_[i] = key;
      vals_[i] = V{};
      ++size_;
    }
    return vals_[i];
  }

  const V* Find(uint64_t key) const {
    return FindHashed(key, Hash64(key));
  }

  const V* FindHashed(uint64_t key, uint64_t hash) const {
    if (size_ == 0) return nullptr;
    size_t i = ProbeSlot(key, hash);
    return keys_[i] == key ? &vals_[i] : nullptr;
  }

  /// fn(uint64_t key, const V& value) over every entry, in table order
  /// (NOT insertion order — callers needing a stable output order sort).
  template <typename Fn>
  void ForEach(Fn fn) const {
    for (size_t i = 0; i < keys_.size(); ++i) {
      if (keys_[i] != kEmptyKey) fn(keys_[i], vals_[i]);
    }
  }

  size_t size() const { return size_; }
  size_t capacity_bytes() const {
    return keys_.size() * (sizeof(uint64_t) + sizeof(V));
  }

 private:
  size_t ProbeSlot(uint64_t key, uint64_t hash) const {
    size_t i = size_t(hash) & mask_;
    while (keys_[i] != key && keys_[i] != kEmptyKey) i = (i + 1) & mask_;
    return i;
  }

  void Allocate(size_t cap) {
    keys_.assign(cap, kEmptyKey);
    vals_.assign(cap, V{});
    mask_ = cap - 1;
    aggstate::Add(aggstate::Kind::kTable, capacity_bytes());
  }

  void Release() {
    if (!keys_.empty()) {
      aggstate::Sub(aggstate::Kind::kTable, capacity_bytes());
    }
  }

  void Grow() {
    std::vector<uint64_t> old_keys = std::move(keys_);
    std::vector<V> old_vals = std::move(vals_);
    aggstate::Sub(aggstate::Kind::kTable,
                  old_keys.size() * (sizeof(uint64_t) + sizeof(V)));
    Allocate(old_keys.size() * 2);
    for (size_t i = 0; i < old_keys.size(); ++i) {
      if (old_keys[i] == kEmptyKey) continue;
      size_t j = ProbeSlot(old_keys[i], Hash64(old_keys[i]));
      keys_[j] = old_keys[i];
      vals_[j] = old_vals[i];
    }
  }

  std::vector<uint64_t> keys_;
  std::vector<V> vals_;
  size_t mask_ = 0;
  size_t size_ = 0;
};

/// A hash-partitioned group-by state: independent AggHashTables (the
/// requested count rounded up to a power of two, so routing is mask on
/// the high Hash64 bits — independent of the in-table probe bits, and one
/// hash serves both). Per-worker states built with the same partition
/// count merge partition-wise — see MergeAggTables. With one partition
/// this is just a plain table (the sequential path).
template <typename V>
class PartitionedAggTable {
 public:
  explicit PartitionedAggTable(unsigned partitions = 1) {
    unsigned count = 1;
    while (count < partitions) count <<= 1;
    mask_ = count - 1;
    parts_.reserve(count);
    for (unsigned p = 0; p < count; ++p) {
      parts_.emplace_back(AggHashTable<V>{});
    }
  }

  unsigned partitions() const { return unsigned(parts_.size()); }
  unsigned PartitionIndexOf(uint64_t key) const {
    return unsigned(Hash64(key) >> 32) & mask_;
  }
  AggHashTable<V>& partition(unsigned p) { return parts_[p]; }
  const AggHashTable<V>& partition(unsigned p) const { return parts_[p]; }

  V& Ref(uint64_t key) {
    const uint64_t h = Hash64(key);
    return parts_[unsigned(h >> 32) & mask_].RefHashed(key, h);
  }
  const V* Find(uint64_t key) const {
    const uint64_t h = Hash64(key);
    return parts_[unsigned(h >> 32) & mask_].FindHashed(key, h);
  }

  template <typename Fn>
  void ForEach(Fn fn) const {
    for (const AggHashTable<V>& part : parts_) part.ForEach(fn);
  }

  size_t size() const {
    size_t n = 0;
    for (const AggHashTable<V>& part : parts_) n += part.size();
    return n;
  }

 private:
  std::vector<AggHashTable<V>> parts_;
  unsigned mask_ = 0;
};

/// Partition-wise merge of per-worker group-by states (all built with the
/// same partition count): result partition p is folded from every worker's
/// partition p in slot order. Partitions are disjoint, so they merge in
/// parallel on the scheduler. `fold` is (V& dst, const V& src); dst is
/// value-initialized for keys new to the result, which makes += folds and
/// unique-key overwrites both correct. A single local (a one-slot run) is
/// moved out as the result, not folded.
template <typename V, typename Fold>
PartitionedAggTable<V> MergeAggTables(
    std::vector<PartitionedAggTable<V>>& locals, Fold fold,
    Scheduler* scheduler = nullptr) {
  if (locals.size() == 1) return std::move(locals.front());
  const unsigned partitions =
      locals.empty() ? 1 : locals.front().partitions();
  PartitionedAggTable<V> merged(partitions);
  auto merge_partition = [&](unsigned p) {
    AggHashTable<V>& dst = merged.partition(p);
    for (PartitionedAggTable<V>& src : locals) {
      src.partition(p).ForEach(
          [&](uint64_t key, const V& v) { fold(dst.Ref(key), v); });
    }
  };
  RunOnSlots(partitions, merge_partition, scheduler);
  return merged;
}

// ---------------------------------------------------------------------------
// Dictionary-aware string group-by keys
// ---------------------------------------------------------------------------

/// Maps string group-by keys to dense uint32 ids so sparse group-bys can key
/// PartitionedAggTable on an integer instead of hashing the string per row.
///
/// Dictionary codes are block-local (every frozen block compresses its own
/// value set), so a code cannot key an aggregate across blocks directly. The
/// interner bridges that: within one batch, BatchKeys resolves each distinct
/// dictionary code to an interned id once and every further row with that
/// code is a single array load — no dictionary dereference, no string hash.
/// Across blocks (and across hot, non-coded batches) ids are stable because
/// they are assigned by string value.
///
/// Concurrency: parallel_scan.h invokes the consume callable concurrently
/// from every slot, so an interner must live in per-worker state (one per
/// ParAgg slot). Per-worker id spaces differ; merge across workers by NAME:
/// translate each worker-local id through name() and re-intern into the
/// merged interner while folding the aggregate tables.
class StringKeyInterner {
 public:
  /// Returns the dense id for `s`, assigning the next id on first sight.
  uint32_t Intern(std::string_view s) {
    auto it = ids_.find(s);
    if (it != ids_.end()) return it->second;
    const uint32_t id = uint32_t(names_.size());
    names_.emplace_back(s);
    ids_.emplace(names_.back(), id);
    return id;
  }

  const std::string& name(uint32_t id) const { return names_[id]; }
  uint32_t size() const { return uint32_t(names_.size()); }

  /// Per-batch code->id resolver for one string column. Bound to the batch's
  /// block dictionary; construct a fresh one per consume call (O(dict size)
  /// reset, amortized over the batch's rows). Falls back to per-row interning
  /// for non-coded columns.
  class BatchKeys {
   public:
    BatchKeys(StringKeyInterner& interner, const ColumnVector& cv)
        : interner_(interner), cv_(cv) {
      if (cv_.coded()) ids_.assign(cv_.dict_size(), kUnresolved);
    }

    uint32_t operator()(uint32_t i) {
      if (!cv_.coded()) return interner_.Intern(cv_.str[i]);
      uint32_t& id = ids_[cv_.codes[i]];
      if (id == kUnresolved) id = interner_.Intern(cv_.Str(i));
      return id;
    }

   private:
    static constexpr uint32_t kUnresolved = UINT32_MAX;
    StringKeyInterner& interner_;
    const ColumnVector& cv_;
    std::vector<uint32_t> ids_;
  };

 private:
  struct StrHash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };
  // Transparent hashing lets Intern probe with a string_view and allocate a
  // std::string key only on first sight of a value.
  std::unordered_map<std::string, uint32_t, StrHash, std::equal_to<>> ids_;
  std::vector<std::string> names_;
};

}  // namespace datablocks

#endif  // DATABLOCKS_EXEC_PARTITIONED_AGG_H_
