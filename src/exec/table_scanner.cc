#include "exec/table_scanner.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "exec/scheduler.h"
#include "obs/metrics.h"
#include "util/bits.h"

namespace datablocks {

namespace {

/// Process-wide mirrors of the per-scanner counters ("scan.*"). Resolved
/// once; the per-chunk event sites then pay one relaxed fetch_add each.
struct ScanMetrics {
  obs::Counter* chunks_pruned;
  obs::Counter* evicted_chunks_pruned;
  obs::Counter* chunks_scanned;
  obs::Counter* pins;
  obs::Counter* archive_reloads;
  obs::Counter* pin_failures;
};

const ScanMetrics& Metrics() {
  static const ScanMetrics m = [] {
    obs::MetricsRegistry& r = obs::MetricsRegistry::Default();
    return ScanMetrics{r.GetCounter("scan.chunks_pruned"),
                       r.GetCounter("scan.evicted_chunks_pruned"),
                       r.GetCounter("scan.chunks_scanned"),
                       r.GetCounter("scan.pins"),
                       r.GetCounter("scan.archive_reloads"),
                       r.GetCounter("scan.pin_failures")};
  }();
  return m;
}

}  // namespace

const char* ScanModeName(ScanMode mode) {
  switch (mode) {
    case ScanMode::kJit: return "JIT";
    case ScanMode::kVectorized: return "Vectorized";
    case ScanMode::kVectorizedSarg: return "Vectorized+SARG";
    case ScanMode::kDataBlocks: return "DataBlocks+SARG/SMA";
    case ScanMode::kDataBlocksPsma: return "DataBlocks+PSMA";
    case ScanMode::kDecompressAll: return "DecompressAll";
  }
  return "?";
}

namespace {

constexpr int64_t kI64Min = std::numeric_limits<int64_t>::min();
constexpr int64_t kI64Max = std::numeric_limits<int64_t>::max();

int64_t ConstInt(const Value& v) {
  return v.kind() == Value::Kind::kDouble ? int64_t(v.f64()) : v.i64();
}
double ConstDouble(const Value& v) {
  return v.kind() == Value::Kind::kInt ? double(v.i64()) : v.f64();
}

/// Scalar evaluation of one predicate against a typed value; used by the
/// tuple-at-a-time paths.
bool EvalInt(CompareOp op, int64_t v, const Predicate& p) {
  switch (op) {
    case CompareOp::kEq: return v == ConstInt(p.lo);
    case CompareOp::kNe: return v != ConstInt(p.lo);
    case CompareOp::kLt: return v < ConstInt(p.lo);
    case CompareOp::kLe: return v <= ConstInt(p.lo);
    case CompareOp::kGt: return v > ConstInt(p.lo);
    case CompareOp::kGe: return v >= ConstInt(p.lo);
    case CompareOp::kBetween:
      return v >= ConstInt(p.lo) && v <= ConstInt(p.hi);
    case CompareOp::kIn:
      for (const Value& c : p.list)
        if (v == ConstInt(c)) return true;
      return false;
    default: return false;
  }
}

bool EvalDouble(CompareOp op, double v, const Predicate& p) {
  switch (op) {
    case CompareOp::kEq: return v == ConstDouble(p.lo);
    case CompareOp::kNe: return v != ConstDouble(p.lo);
    case CompareOp::kLt: return v < ConstDouble(p.lo);
    case CompareOp::kLe: return v <= ConstDouble(p.lo);
    case CompareOp::kGt: return v > ConstDouble(p.lo);
    case CompareOp::kGe: return v >= ConstDouble(p.lo);
    case CompareOp::kBetween:
      return v >= ConstDouble(p.lo) && v <= ConstDouble(p.hi);
    case CompareOp::kIn:
      for (const Value& c : p.list)
        if (v == ConstDouble(c)) return true;
      return false;
    default: return false;
  }
}

bool EvalString(CompareOp op, std::string_view v, const Predicate& p) {
  switch (op) {
    case CompareOp::kEq: return v == p.lo.str();
    case CompareOp::kNe: return v != p.lo.str();
    case CompareOp::kLt: return v < p.lo.str();
    case CompareOp::kLe: return v <= p.lo.str();
    case CompareOp::kGt: return v > p.lo.str();
    case CompareOp::kGe: return v >= p.lo.str();
    case CompareOp::kBetween: return v >= p.lo.str() && v <= p.hi.str();
    case CompareOp::kIn:
      for (const Value& c : p.list)
        if (v == c.str()) return true;
      return false;
    case CompareOp::kPrefix:
      return v.substr(0, p.lo.str().size()) == p.lo.str();
    default: return false;
  }
}

struct IntRange {
  int64_t lo, hi;
  bool empty() const { return lo > hi; }
};

IntRange OpToRange(CompareOp op, int64_t a, int64_t b) {
  switch (op) {
    case CompareOp::kEq: return {a, a};
    case CompareOp::kLt:
      return a == kI64Min ? IntRange{1, 0} : IntRange{kI64Min, a - 1};
    case CompareOp::kLe: return {kI64Min, a};
    case CompareOp::kGt:
      return a == kI64Max ? IntRange{1, 0} : IntRange{a + 1, kI64Max};
    case CompareOp::kGe: return {a, kI64Max};
    case CompareOp::kBetween: return {a, b};
    default: return {1, 0};
  }
}

/// SIMD (or scalar-fallback) evaluation of one predicate on a window of an
/// uncompressed chunk. Returns the new match count.
uint32_t RunHotPred(const Chunk& chunk, const Predicate& pred, TypeId type,
                    uint32_t from, uint32_t to, Isa isa, bool first,
                    uint32_t* buf, uint32_t n) {
  const uint8_t* data = chunk.column_data(pred.col);

  // NULL bitmap predicates.
  if (pred.op == CompareOp::kIsNull || pred.op == CompareOp::kIsNotNull) {
    const uint64_t* bitmap = chunk.null_bitmap(pred.col);
    bool keep_set = pred.op == CompareOp::kIsNull;
    if (first) {
      uint32_t* w = buf;
      for (uint32_t i = from; i < to; ++i) {
        *w = i;
        w += ((bitmap != nullptr && BitmapTest(bitmap, i)) == keep_set);
      }
      return uint32_t(w - buf);
    }
    return FilterPositionsByBitmap(buf, n, bitmap, keep_set, buf);
  }

  // IN / prefix restrictions have no SIMD kernel on uncompressed data;
  // evaluate them scalar per row (frozen blocks translate them to code
  // ranges or code sets instead).
  if (pred.op == CompareOp::kIn || pred.op == CompareOp::kPrefix) {
    auto eval = [&](uint32_t row) -> bool {
      switch (type) {
        case TypeId::kString:
          return EvalString(pred.op, chunk.GetString(pred.col, row), pred);
        case TypeId::kDouble:
          return EvalDouble(pred.op,
                            reinterpret_cast<const double*>(data)[row], pred);
        case TypeId::kInt64:
          return EvalInt(pred.op,
                         reinterpret_cast<const int64_t*>(data)[row], pred);
        case TypeId::kChar1:
          return EvalInt(pred.op,
                         reinterpret_cast<const uint32_t*>(data)[row], pred);
        default:
          return EvalInt(pred.op,
                         reinterpret_cast<const int32_t*>(data)[row], pred);
      }
    };
    uint32_t* w = buf;
    if (first) {
      for (uint32_t i = from; i < to; ++i) {
        *w = i;
        w += eval(i);
      }
    } else {
      for (uint32_t j = 0; j < n; ++j) {
        uint32_t p = buf[j];
        *w = p;
        w += eval(p);
      }
    }
    return uint32_t(w - buf);
  }

  switch (type) {
    case TypeId::kString: {
      uint32_t* w = buf;
      if (first) {
        for (uint32_t i = from; i < to; ++i) {
          *w = i;
          w += EvalString(pred.op, chunk.GetString(pred.col, i), pred);
        }
      } else {
        for (uint32_t j = 0; j < n; ++j) {
          uint32_t p = buf[j];
          *w = p;
          w += EvalString(pred.op, chunk.GetString(pred.col, p), pred);
        }
      }
      return uint32_t(w - buf);
    }
    case TypeId::kDouble: {
      const double* d = reinterpret_cast<const double*>(data);
      constexpr double kInf = std::numeric_limits<double>::infinity();
      if (pred.op == CompareOp::kNe) {
        return first ? FindMatchesNeF64(d, from, to, ConstDouble(pred.lo), buf)
                     : ReduceMatchesNeF64(d, buf, n, ConstDouble(pred.lo),
                                          buf);
      }
      double lo = -kInf, hi = kInf;
      switch (pred.op) {
        case CompareOp::kEq: lo = hi = ConstDouble(pred.lo); break;
        case CompareOp::kLt: hi = std::nextafter(ConstDouble(pred.lo), -kInf); break;
        case CompareOp::kLe: hi = ConstDouble(pred.lo); break;
        case CompareOp::kGt: lo = std::nextafter(ConstDouble(pred.lo), kInf); break;
        case CompareOp::kGe: lo = ConstDouble(pred.lo); break;
        case CompareOp::kBetween:
          lo = ConstDouble(pred.lo);
          hi = ConstDouble(pred.hi);
          break;
        default: break;
      }
      return first ? FindMatchesBetweenF64(d, from, to, lo, hi, buf)
                   : ReduceMatchesBetweenF64(d, buf, n, lo, hi, buf);
    }
    default: {
      // Integer-like.
      if (pred.op == CompareOp::kNe) {
        int64_t v = ConstInt(pred.lo);
        switch (type) {
          case TypeId::kInt32:
          case TypeId::kDate: {
            const int32_t* d = reinterpret_cast<const int32_t*>(data);
            if (v < INT32_MIN || v > INT32_MAX) {
              // Everything differs: keep all (null filtering happens later).
              if (first) {
                uint32_t* w = buf;
                for (uint32_t i = from; i < to; ++i) *w++ = i;
                return uint32_t(w - buf);
              }
              return n;
            }
            return first ? FindMatchesNe<int32_t>(d, from, to, int32_t(v),
                                                  isa, buf)
                         : ReduceMatchesNe<int32_t>(d, buf, n, int32_t(v),
                                                    isa, buf);
          }
          case TypeId::kChar1: {
            const uint32_t* d = reinterpret_cast<const uint32_t*>(data);
            return first ? FindMatchesNe<uint32_t>(d, from, to, uint32_t(v),
                                                   isa, buf)
                         : ReduceMatchesNe<uint32_t>(d, buf, n, uint32_t(v),
                                                     isa, buf);
          }
          default: {
            const int64_t* d = reinterpret_cast<const int64_t*>(data);
            return first ? FindMatchesNe<int64_t>(d, from, to, v, isa, buf)
                         : ReduceMatchesNe<int64_t>(d, buf, n, v, isa, buf);
          }
        }
      }
      IntRange r = OpToRange(pred.op, ConstInt(pred.lo),
                             pred.op == CompareOp::kBetween
                                 ? ConstInt(pred.hi)
                                 : 0);
      if (r.empty()) return 0;
      switch (type) {
        case TypeId::kInt32:
        case TypeId::kDate: {
          if (r.hi < INT32_MIN || r.lo > INT32_MAX) return 0;
          int32_t lo = int32_t(std::max<int64_t>(r.lo, INT32_MIN));
          int32_t hi = int32_t(std::min<int64_t>(r.hi, INT32_MAX));
          const int32_t* d = reinterpret_cast<const int32_t*>(data);
          return first
                     ? FindMatchesBetween<int32_t>(d, from, to, lo, hi, isa,
                                                   buf)
                     : ReduceMatchesBetween<int32_t>(d, buf, n, lo, hi, isa,
                                                     buf);
        }
        case TypeId::kChar1: {
          if (r.hi < 0 || r.lo > int64_t(UINT32_MAX)) return 0;
          uint32_t lo = uint32_t(std::max<int64_t>(r.lo, 0));
          uint32_t hi = uint32_t(std::min<int64_t>(r.hi, int64_t(UINT32_MAX)));
          const uint32_t* d = reinterpret_cast<const uint32_t*>(data);
          return first
                     ? FindMatchesBetween<uint32_t>(d, from, to, lo, hi, isa,
                                                    buf)
                     : ReduceMatchesBetween<uint32_t>(d, buf, n, lo, hi, isa,
                                                      buf);
        }
        default: {
          const int64_t* d = reinterpret_cast<const int64_t*>(data);
          return first ? FindMatchesBetween<int64_t>(d, from, to, r.lo, r.hi,
                                                     isa, buf)
                       : ReduceMatchesBetween<int64_t>(d, buf, n, r.lo, r.hi,
                                                       isa, buf);
        }
      }
    }
  }
}

}  // namespace

TableScanner::TableScanner(const Table& table, std::vector<uint32_t> columns,
                           std::vector<Predicate> predicates, ScanMode mode,
                           uint32_t vector_size, Isa isa)
    : table_(&table),
      columns_(std::move(columns)),
      predicates_(std::move(predicates)),
      mode_(mode),
      vector_size_(vector_size),
      isa_(isa) {
  DB_CHECK(vector_size_ > 0);
  positions_.resize(vector_size_ + 8);
}

TableScanner::~TableScanner() { ReleasePin(); }

void TableScanner::PinCurrentChunk() {
  if (pinned_chunk_ == chunk_idx_) return;
  ReleasePin();
  // Sample the state before pinning: a pin that finds the chunk evicted is
  // the scan-side archive-read path. The state may flip concurrently (another
  // reader reloading first), so this classifies, it does not synchronize.
  const bool was_evicted =
      table_->chunk_state(chunk_idx_) == ChunkState::kEvicted;
  try {
    table_->PinChunk(chunk_idx_);
  } catch (const StorageException& e) {
    // PinChunk released its own pin; annotate with scan context and let the
    // exception travel up the pipeline (TaskGroup carries it across pool
    // workers) — the query fails, the process does not.
    Metrics().pin_failures->Add();
    throw StorageException(Status(
        e.status().code(), "scan of table '" + table_->name() + "' chunk " +
                               std::to_string(chunk_idx_) +
                               " failed: " + e.status().message()));
  }
  pinned_chunk_ = chunk_idx_;
  ++pins_;
  Metrics().pins->Add();
  if (was_evicted) {
    ++archive_reloads_;
    Metrics().archive_reloads->Add();
  }
}

void TableScanner::ReleasePin() {
  if (pinned_chunk_ != SIZE_MAX) {
    table_->UnpinChunk(pinned_chunk_);
    pinned_chunk_ = SIZE_MAX;
  }
}

void TableScanner::Reset() {
  ReleasePin();
  chunk_idx_ = chunk_begin_;
  pos_ = 0;
  chunk_prepped_ = false;
  skip_chunk_ = false;
  chunks_skipped_ = 0;
  evicted_skips_ = 0;
  chunks_scanned_ = 0;
  rows_considered_ = 0;
  pins_ = 0;
  archive_reloads_ = 0;
}

bool TableScanner::TrySkipChunkUnpinned() {
  const size_t c = chunk_idx_;
  const uint32_t rows = table_->chunk_rows(c);
  if (rows == 0) return false;  // PrepareChunk handles empty chunks cheaply
  const ChunkState st = table_->chunk_state(c);
  // Hot chunks are excluded: their delete counter is not synchronized for
  // lock-free readers, and they are resident anyway — nothing to save.
  // Tombstones qualify: they are fully deleted by construction and their
  // payload is gone for good, so the bitmap check below always skips them.
  if (st != ChunkState::kFrozen && st != ChunkState::kEvicted &&
      st != ChunkState::kTombstone) {
    return false;
  }

  // A fully-deleted chunk produces no tuples in any scan mode; skipping it
  // here avoids the pin (and, if evicted, the archive reload).
  if (table_->deleted_in_chunk(c) == rows) {
    ++chunks_skipped_;
    Metrics().chunks_pruned->Add();
    if (st == ChunkState::kEvicted) {
      ++evicted_skips_;
      Metrics().evicted_chunks_pruned->Add();
    }
    return true;
  }

  // Summary-only SMA/PSMA pruning of evicted blocks: the point of keeping
  // summaries resident. Only the SARG-pushdown modes prune on SMAs (the
  // baseline modes deliberately scan everything), and the decision is
  // conservative — a skip here is a skip PrepareBlockScan would also make,
  // just without faulting the payload back in or touching the LRU. The
  // chunk may be reloaded concurrently by another reader; that cannot
  // invalidate the decision, which rests only on immutable block metadata.
  if (st != ChunkState::kEvicted || predicates_.empty()) return false;
  if (mode_ != ScanMode::kVectorizedSarg && mode_ != ScanMode::kDataBlocks &&
      mode_ != ScanMode::kDataBlocksPsma) {
    return false;
  }
  const BlockSummary* summary = table_->block_summary(c);
  if (summary == nullptr) return false;  // not archived by a manager: pin
  SummaryScanPrep prep = PrepareSummaryScan(
      *summary, predicates_, mode_ == ScanMode::kDataBlocksPsma);
  if (!prep.skip) return false;
  ++chunks_skipped_;
  ++evicted_skips_;
  Metrics().chunks_pruned->Add();
  Metrics().evicted_chunks_pruned->Add();
  return true;
}

void TableScanner::PrepareChunk() {
  chunk_prepped_ = true;
  skip_chunk_ = false;
  range_begin_ = 0;
  range_end_ = table_->chunk_rows(chunk_idx_);
  if (range_end_ == 0) {
    skip_chunk_ = true;
    return;
  }
  // A chunk can tombstone between the unpinned skip probe and the pin (its
  // last row deleted in that window). Once pinned the state is stable —
  // tombstone is terminal — and there is no payload to produce from.
  if (table_->chunk_state(chunk_idx_) == ChunkState::kTombstone) {
    skip_chunk_ = true;
    ++chunks_skipped_;
    Metrics().chunks_pruned->Add();
    return;
  }
  const DataBlock* block = table_->frozen_block(chunk_idx_);
  if (block != nullptr) {
    switch (mode_) {
      case ScanMode::kJit:
      case ScanMode::kVectorized:
      case ScanMode::kDecompressAll:
        break;  // no early filtering on these paths
      case ScanMode::kVectorizedSarg:
      case ScanMode::kDataBlocks:
      case ScanMode::kDataBlocksPsma: {
        block_prep_ = PrepareBlockScan(*block, predicates_,
                                       mode_ == ScanMode::kDataBlocksPsma);
        if (block_prep_.skip) {
          skip_chunk_ = true;
          ++chunks_skipped_;
          Metrics().chunks_pruned->Add();
          return;
        }
        range_begin_ = block_prep_.range_begin;
        range_end_ = block_prep_.range_end;
        break;
      }
    }
  }
  ++chunks_scanned_;
  rows_considered_ += range_end_ - range_begin_;
  Metrics().chunks_scanned->Add();
}

bool TableScanner::Next(Batch* batch) {
  // Batch boundary: the previous batch is consumed, so this is where a
  // pool worker lets pending urgent tasks (OLTP point ops) run instead of
  // making them wait for the rest of the pipeline.
  Scheduler::RunUrgentHere();
  batch->Reset(table_->schema(), columns_);
  const size_t end = std::min<size_t>(chunk_limit_, table_->num_chunks());
  while (chunk_idx_ < end) {
    if (!chunk_prepped_) {
      // First chance: rule the chunk out without pinning it at all — an
      // SMA-skipped evicted block must never be fetched from the archive
      // or promoted in the LRU.
      if (TrySkipChunkUnpinned()) {
        chunk_prepped_ = true;
        skip_chunk_ = true;
      } else {
        // Pin before looking at the chunk: reloads it if evicted and blocks
        // freeze/evict until the scan moves on.
        PinCurrentChunk();
        PrepareChunk();
      }
      pos_ = range_begin_;
    }
    if (skip_chunk_ || pos_ >= range_end_) {
      ReleasePin();
      ++chunk_idx_;
      chunk_prepped_ = false;
      continue;
    }
    uint32_t from = pos_;
    uint32_t to = std::min(pos_ + vector_size_, range_end_);
    pos_ = to;

    const DataBlock* block = table_->frozen_block(chunk_idx_);
    uint32_t produced =
        block != nullptr
            ? ProduceFrozenWindow(*block, from, to, batch)
            : ProduceHotWindow(*table_->hot_chunk(chunk_idx_), from, to,
                               batch);
    if (produced > 0) {
      batch->count = produced;
      return true;
    }
  }
  return false;
}

bool TableScanner::EvalPredsOnChunkRow(const Chunk& chunk,
                                       uint32_t row) const {
  const Schema& schema = table_->schema();
  for (const Predicate& p : predicates_) {
    if (p.op == CompareOp::kIsNull) {
      if (!chunk.IsNull(p.col, row)) return false;
      continue;
    }
    if (p.op == CompareOp::kIsNotNull) {
      if (chunk.IsNull(p.col, row)) return false;
      continue;
    }
    if (chunk.IsNull(p.col, row)) return false;
    switch (schema.type(p.col)) {
      case TypeId::kString:
        if (!EvalString(p.op, chunk.GetString(p.col, row), p)) return false;
        break;
      case TypeId::kDouble: {
        double v =
            reinterpret_cast<const double*>(chunk.column_data(p.col))[row];
        if (!EvalDouble(p.op, v, p)) return false;
        break;
      }
      case TypeId::kInt32:
      case TypeId::kDate: {
        int64_t v =
            reinterpret_cast<const int32_t*>(chunk.column_data(p.col))[row];
        if (!EvalInt(p.op, v, p)) return false;
        break;
      }
      case TypeId::kChar1: {
        int64_t v =
            reinterpret_cast<const uint32_t*>(chunk.column_data(p.col))[row];
        if (!EvalInt(p.op, v, p)) return false;
        break;
      }
      case TypeId::kInt64: {
        int64_t v =
            reinterpret_cast<const int64_t*>(chunk.column_data(p.col))[row];
        if (!EvalInt(p.op, v, p)) return false;
        break;
      }
    }
  }
  return true;
}

bool TableScanner::EvalPredsOnBlockRow(const DataBlock& block,
                                       uint32_t row) const {
  for (const Predicate& p : predicates_) {
    bool is_null = block.IsNull(p.col, row);
    if (p.op == CompareOp::kIsNull) {
      if (!is_null) return false;
      continue;
    }
    if (p.op == CompareOp::kIsNotNull) {
      if (is_null) return false;
      continue;
    }
    if (is_null) return false;
    switch (block.type(p.col)) {
      case TypeId::kString:
        if (!EvalString(p.op, block.GetStringView(p.col, row), p))
          return false;
        break;
      case TypeId::kDouble:
        if (!EvalDouble(p.op, block.GetDouble(p.col, row), p)) return false;
        break;
      default:
        if (!EvalInt(p.op, block.GetInt(p.col, row), p)) return false;
        break;
    }
  }
  return true;
}

void TableScanner::AppendChunkRow(const Chunk& chunk, uint32_t row,
                                  Batch* batch) {
  const Schema& schema = table_->schema();
  for (size_t i = 0; i < columns_.size(); ++i) {
    uint32_t col = columns_[i];
    ColumnVector& out = batch->cols[i];
    bool nullable = schema.column(col).nullable;
    bool is_null = nullable && chunk.IsNull(col, row);
    if (nullable) out.null_mask.push_back(is_null ? 1 : 0);
    switch (schema.type(col)) {
      case TypeId::kInt32:
      case TypeId::kDate:
        out.i32.push_back(
            reinterpret_cast<const int32_t*>(chunk.column_data(col))[row]);
        break;
      case TypeId::kChar1:
        out.i32.push_back(int32_t(
            reinterpret_cast<const uint32_t*>(chunk.column_data(col))[row]));
        break;
      case TypeId::kInt64:
        out.i64.push_back(
            reinterpret_cast<const int64_t*>(chunk.column_data(col))[row]);
        break;
      case TypeId::kDouble:
        out.f64.push_back(
            reinterpret_cast<const double*>(chunk.column_data(col))[row]);
        break;
      case TypeId::kString:
        out.str.push_back(is_null ? std::string_view()
                                  : chunk.GetString(col, row));
        break;
    }
  }
}

void TableScanner::AppendBlockRow(const DataBlock& block, uint32_t row,
                                  Batch* batch) {
  for (size_t i = 0; i < columns_.size(); ++i) {
    uint32_t col = columns_[i];
    ColumnVector& out = batch->cols[i];
    bool nullable = table_->schema().column(col).nullable;
    bool is_null = nullable && block.IsNull(col, row);
    if (nullable) out.null_mask.push_back(is_null ? 1 : 0);
    switch (block.type(col)) {
      case TypeId::kInt32:
      case TypeId::kDate:
      case TypeId::kChar1:
        out.i32.push_back(is_null ? 0 : int32_t(block.GetInt(col, row)));
        break;
      case TypeId::kInt64:
        out.i64.push_back(is_null ? 0 : block.GetInt(col, row));
        break;
      case TypeId::kDouble:
        out.f64.push_back(is_null ? 0 : block.GetDouble(col, row));
        break;
      case TypeId::kString:
        out.str.push_back(is_null ? std::string_view()
                                  : block.GetStringView(col, row));
        break;
    }
  }
}

void TableScanner::GatherFromChunk(const Chunk& chunk, const uint32_t* pos,
                                   uint32_t n, Batch* batch) {
  const Schema& schema = table_->schema();
  for (size_t i = 0; i < columns_.size(); ++i) {
    uint32_t col = columns_[i];
    ColumnVector& out = batch->cols[i];
    const uint8_t* data = chunk.column_data(col);
    if (schema.column(col).nullable) {
      const uint64_t* nulls = chunk.null_bitmap(col);
      for (uint32_t j = 0; j < n; ++j)
        out.null_mask.push_back(
            (nulls != nullptr && BitmapTest(nulls, pos[j])) ? 1 : 0);
    }
    switch (schema.type(col)) {
      case TypeId::kInt32:
      case TypeId::kDate: {
        const int32_t* d = reinterpret_cast<const int32_t*>(data);
        for (uint32_t j = 0; j < n; ++j) out.i32.push_back(d[pos[j]]);
        break;
      }
      case TypeId::kChar1: {
        const uint32_t* d = reinterpret_cast<const uint32_t*>(data);
        for (uint32_t j = 0; j < n; ++j) out.i32.push_back(int32_t(d[pos[j]]));
        break;
      }
      case TypeId::kInt64: {
        const int64_t* d = reinterpret_cast<const int64_t*>(data);
        for (uint32_t j = 0; j < n; ++j) out.i64.push_back(d[pos[j]]);
        break;
      }
      case TypeId::kDouble: {
        const double* d = reinterpret_cast<const double*>(data);
        for (uint32_t j = 0; j < n; ++j) out.f64.push_back(d[pos[j]]);
        break;
      }
      case TypeId::kString: {
        for (uint32_t j = 0; j < n; ++j)
          out.str.push_back(chunk.GetString(col, pos[j]));
        break;
      }
    }
  }
}

uint32_t TableScanner::ProduceHotWindow(const Chunk& chunk, uint32_t from,
                                        uint32_t to, Batch* batch) {
  const uint64_t* deleted = chunk.delete_bitmap();

  if (mode_ == ScanMode::kJit) {
    uint32_t produced = 0;
    for (uint32_t row = from; row < to; ++row) {
      if (deleted != nullptr && BitmapTest(deleted, row)) continue;
      if (!EvalPredsOnChunkRow(chunk, row)) continue;
      AppendChunkRow(chunk, row, batch);
      ++produced;
    }
    return produced;
  }

  if (mode_ == ScanMode::kVectorized || mode_ == ScanMode::kDecompressAll) {
    // Copy the full vector range first, evaluate predicates afterwards
    // tuple-at-a-time (predicates stay "in the pipeline").
    uint32_t window = to - from;
    positions_.resize(std::max<size_t>(positions_.size(), window + 8));
    for (uint32_t i = 0; i < window; ++i) positions_[i] = from + i;
    GatherFromChunk(chunk, positions_.data(), window, batch);
    // Build local keep list.
    static thread_local std::vector<uint32_t> keep;
    keep.clear();
    for (uint32_t i = 0; i < window; ++i) {
      uint32_t row = from + i;
      if (deleted != nullptr && BitmapTest(deleted, row)) continue;
      if (!EvalPredsOnChunkRow(chunk, row)) continue;
      keep.push_back(i);
    }
    if (keep.size() != window) {
      for (auto& col : batch->cols)
        col.Compact(keep.data(), uint32_t(keep.size()));
    }
    return uint32_t(keep.size());
  }

  // SARG pushdown on uncompressed data: SIMD find/reduce, then gather.
  positions_.resize(std::max<size_t>(positions_.size(), (to - from) + 8));
  uint32_t n = 0;
  bool first = true;
  for (const Predicate& p : predicates_) {
    n = RunHotPred(chunk, p, table_->schema().type(p.col), from, to, isa_,
                   first, positions_.data(), n);
    first = false;
    if (n == 0) return 0;
  }
  if (first) {
    n = to - from;
    for (uint32_t i = 0; i < n; ++i) positions_[i] = from + i;
  }
  // Drop NULLs that slipped through value predicates (stored payload is 0).
  for (const Predicate& p : predicates_) {
    if (p.op == CompareOp::kIsNull || p.op == CompareOp::kIsNotNull) continue;
    if (!chunk.has_nulls(p.col)) continue;
    n = FilterPositionsByBitmap(positions_.data(), n, chunk.null_bitmap(p.col),
                                false, positions_.data());
  }
  if (deleted != nullptr) {
    n = FilterPositionsByBitmap(positions_.data(), n, deleted, false,
                                positions_.data());
  }
  if (n == 0) return 0;
  GatherFromChunk(chunk, positions_.data(), n, batch);
  return n;
}

uint32_t TableScanner::ProduceFrozenJit(const DataBlock& block, uint32_t from,
                                        uint32_t to, Batch* batch) {
  const uint64_t* deleted = table_->delete_bitmap(chunk_idx_);
  uint32_t produced = 0;
  for (uint32_t row = from; row < to; ++row) {
    if (deleted != nullptr && BitmapTest(deleted, row)) continue;
    if (!EvalPredsOnBlockRow(block, row)) continue;
    AppendBlockRow(block, row, batch);
    ++produced;
  }
  return produced;
}

uint32_t TableScanner::ProduceFrozenDecompressAll(const DataBlock& block,
                                                  uint32_t from, uint32_t to,
                                                  Batch* batch) {
  // Vectorwise-style: decompress full vector ranges of every required and
  // predicate column, then filter tuple-at-a-time on the decompressed data.
  const uint64_t* deleted = table_->delete_bitmap(chunk_idx_);
  const uint32_t window = to - from;

  for (size_t i = 0; i < columns_.size(); ++i)
    UnpackColumnRange(block, columns_[i], from, to, &batch->cols[i]);

  static thread_local std::vector<uint32_t> keep;
  keep.clear();
  for (uint32_t i = 0; i < window; ++i) {
    uint32_t row = from + i;
    if (deleted != nullptr && BitmapTest(deleted, row)) continue;
    if (!EvalPredsOnBlockRow(block, row)) continue;
    keep.push_back(i);
  }
  if (keep.size() != window) {
    for (auto& col : batch->cols)
      col.Compact(keep.data(), uint32_t(keep.size()));
  }
  return uint32_t(keep.size());
}

uint32_t TableScanner::ProduceFrozenWindow(const DataBlock& block,
                                           uint32_t from, uint32_t to,
                                           Batch* batch) {
  if (mode_ == ScanMode::kJit) return ProduceFrozenJit(block, from, to, batch);
  if (mode_ == ScanMode::kVectorized || mode_ == ScanMode::kDecompressAll)
    return ProduceFrozenDecompressAll(block, from, to, batch);

  const uint64_t* deleted = table_->delete_bitmap(chunk_idx_);

  // The Data Blocks modes emit dictionary-compressed string columns as
  // code-carrying vectors: survivors stay compressed through the pipeline
  // and decode lazily via ColumnVector::Str(). The block stays valid for
  // the batch's lifetime because the chunk pin is held until the scan moves
  // on. The comparison baselines (kVectorizedSarg and below) keep
  // materializing so they measure the decompress cost they are meant to.
  const bool emit_codes =
      mode_ == ScanMode::kDataBlocks || mode_ == ScanMode::kDataBlocksPsma;
  auto codeable = [&](uint32_t col) {
    return emit_codes && block.type(col) == TypeId::kString &&
           block.attr(col).dict_count > 0;
  };

  // Fast path: every tuple in the window matches and none are deleted.
  if (block_prep_.MatchAll() && deleted == nullptr) {
    for (size_t i = 0; i < columns_.size(); ++i) {
      if (codeable(columns_[i]))
        UnpackColumnCodesRange(block, columns_[i], from, to, &batch->cols[i]);
      else
        UnpackColumnRange(block, columns_[i], from, to, &batch->cols[i]);
    }
    return to - from;
  }

  positions_.resize(std::max<size_t>(positions_.size(), (to - from) + 8));
  uint32_t n = FindMatchesInBlock(block, block_prep_, from, to, isa_,
                                  positions_.data());
  if (deleted != nullptr) {
    n = FilterPositionsByBitmap(positions_.data(), n, deleted, false,
                                positions_.data());
  }
  if (n == 0) return 0;
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (codeable(columns_[i]))
      UnpackColumnCodes(block, columns_[i], positions_.data(), n,
                        &batch->cols[i]);
    else
      UnpackColumn(block, columns_[i], positions_.data(), n, &batch->cols[i]);
  }
  return n;
}

}  // namespace datablocks
