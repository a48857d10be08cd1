#ifndef TSWARP_DTW_WARPING_TABLE_H_
#define TSWARP_DTW_WARPING_TABLE_H_

#include <cstddef>
#include <span>
#include <vector>

#include "common/logging.h"
#include "common/types.h"
#include "dtw/base.h"
#include "dtw/simd.h"
#include "dtw/simd_internal.h"

namespace tswarp::dtw {

namespace internal {

/// The cumulative-distance row recurrence (paper Definition 2) behind both
/// tables below: computes data row `y` into caller-owned storage from the
/// previous row (nullptr for y == 0). WarpingTable keeps every row (a DFS
/// stack); ScanTable keeps two (a per-start scan). Both step rows through
/// this one class, so the same pushes give bit-identical cells in either.
///
/// Each row y >= 1 is computed in three steps: (1) the in-band column range
/// [x_lo, x_hi) is hoisted out of the recurrence (the band test is a range
/// computation per row, not a branch per cell); (2) cells outside the range
/// are filled with +infinity; (3) the in-band cells are handed to the
/// active simd::Kernels() row-step kernel, which evaluates the Definition-2
/// recurrence with the canonical block-scan dataflow (bitwise identical on
/// every backend — see dtw/simd.h). The carry-in `left` for the first
/// computed cell is row[x_lo - 1], which is always +infinity: either the
/// column-0 sentinel or a just-filled out-of-band cell. Row 0 (the
/// prefix-sum row with the x == 1 entry cell) is sequential and
/// backend-independent.
///
/// The kernel's scan blocks are anchored to the absolute query index, not
/// to x_lo: a block that the band only partially covers — at either edge
/// of the in-band range — is evaluated with the same padded block-scan
/// dataflow as a full block (simd::internal::PaddedScanBlock: leading
/// out-of-band lanes keep their real base distances, so the prefix sum is
/// band-independent, but contribute +infinity path minima; trailing lanes
/// are causally inert padding). Each cell's floating-point dataflow
/// therefore depends only on its absolute column, never on how the band
/// clips the row, and since every operation in the recurrence is monotone
/// and rounding preserves order, widening the band is monotone per cell
/// even at the ULP level — DtwDistanceBanded distances never increase
/// with a wider band, exactly, which callers and tests rely on.
class RowRecurrence {
 public:
  RowRecurrence(std::span<const Value> query, std::size_t query_length,
                Pos band)
      : query_(query),
        query_len_(query_length),
        band_(band),
        scratch_(query_length) {
    TSW_CHECK(query_length > 0) << "query must be non-null (paper Def. 1)";
  }

  void BindQuery(std::span<const Value> query) {
    TSW_CHECK(query.size() == query_len_);
    query_ = query;
  }

  /// Cells per row: the query columns plus the column-0 sentinel.
  std::size_t Width() const { return query_len_ + 1; }

  std::span<const Value> query() const { return query_; }
  std::size_t query_length() const { return query_len_; }
  Pos band() const { return band_; }
  std::uint64_t cells_computed() const { return cells_computed_; }

  /// Exact-D_tw row y for data element `v`; returns the row minimum.
  Value StepValue(std::size_t y, const Value* prev, Value* row, Value v) {
    TSW_DCHECK(!query_.empty());
    const RowFrame f = BeginRow(y, prev, row);
    Value rmin;
    if (f.prev == nullptr) {
      rmin = Row0PrefixSum(
          [this, v](std::size_t xi) { return BaseDistance(query_[xi], v); },
          f);
    } else {
      rmin = ComputeRow(
          f,
          [this, v](std::size_t x) { return BaseDistance(query_[x - 1], v); },
          [&](std::size_t start, std::size_t n, Value left) {
            return kernels_->row_step_value(query_.data() + (start - 1), v,
                                            f.prev + start, f.row + start, n,
                                            left);
          });
    }
    cells_computed_ += f.hi - f.lo;
    return rmin;
  }

  /// D_tw-lb row y for a category interval [lb, ub]; returns the row
  /// minimum.
  Value StepInterval(std::size_t y, const Value* prev, Value* row, Value lb,
                     Value ub) {
    TSW_DCHECK(!query_.empty());
    const RowFrame f = BeginRow(y, prev, row);
    Value rmin;
    if (f.prev == nullptr) {
      rmin = Row0PrefixSum(
          [this, lb, ub](std::size_t xi) {
            return BaseDistanceLb(query_[xi], lb, ub);
          },
          f);
    } else {
      rmin = ComputeRow(
          f,
          [this, lb, ub](std::size_t x) {
            return BaseDistanceLb(query_[x - 1], lb, ub);
          },
          [&](std::size_t start, std::size_t n, Value left) {
            return kernels_->row_step_interval(query_.data() + (start - 1),
                                               lb, ub, f.prev + start,
                                               f.row + start, n, left);
          });
    }
    cells_computed_ += f.hi - f.lo;
    return rmin;
  }

  /// Row y with caller-supplied base distances: `base(x)` must return
  /// D_base(Q[x+1], element) for query index x (0-based). The base
  /// distances are materialized into an aligned scratch row and handed to
  /// the generic row-step kernel. Returns the row minimum.
  template <typename BaseFn>
  Value StepCustom(std::size_t y, const Value* prev, Value* row,
                   BaseFn base) {
    const RowFrame f = BeginRow(y, prev, row);
    Value rmin;
    if (f.prev == nullptr) {
      rmin = Row0PrefixSum(base, f);
    } else {
      rmin = ComputeRow(
          f, [&base](std::size_t x) { return base(x - 1); },
          [&](std::size_t start, std::size_t n, Value left) {
            for (std::size_t k = 0; k < n; ++k) {
              scratch_[k] = base(start - 1 + k);
            }
            return kernels_->row_step_base(scratch_.data(), f.prev + start,
                                           f.row + start, n, left);
          });
    }
    cells_computed_ += f.hi - f.lo;
    return rmin;
  }

 private:
  /// One row being computed: its storage, the previous row (nullptr for
  /// row 0), and the in-band column range [lo, hi).
  struct RowFrame {
    Value* row;
    const Value* prev;
    std::size_t lo;
    std::size_t hi;
  };

  /// In-band column range [lo, hi) of row `y`: columns x with 0-based query
  /// index xi = x - 1 satisfying |xi - y| <= band. Empty ranges (a row
  /// entirely below the band) come back as {1, 1}, so the +infinity fill
  /// covers the whole row. Column 0 is a sentinel (+infinity) that
  /// realizes the standard DTW boundary conditions.
  RowFrame BeginRow(std::size_t y, const Value* prev, Value* row) const {
    const std::size_t w = Width();
    row[0] = kInfinity;
    std::size_t lo = 1;
    std::size_t hi = w;
    if (band_ != 0) {
      const std::size_t lo_xi = y > band_ ? y - band_ : 0;
      const std::size_t hi_xi = query_len_ - 1 < y + band_
                                    ? query_len_ - 1
                                    : y + band_;  // inclusive
      if (lo_xi > hi_xi) {
        lo = hi = 1;  // Row lies entirely outside the band.
      } else {
        lo = lo_xi + 1;
        hi = hi_xi + 2;
      }
      for (std::size_t x = 1; x < lo; ++x) row[x] = kInfinity;
      for (std::size_t x = hi; x < w; ++x) row[x] = kInfinity;
    }
    return {row, prev, lo, hi};
  }

  /// Computes the in-band cells of a row y >= 1. Scan blocks are anchored
  /// to the absolute query index: if x_lo does not start on a kRowBlock
  /// boundary (only possible under a band), the first block is evaluated
  /// by the canonical padded block-scan (leading out-of-band lanes masked
  /// to +infinity path minima), and the kernel gets the aligned remainder
  /// — the kernel itself pads any trailing partial block the same way.
  /// `base_at_x(x)` is the base distance of column x; `kernel(start, n,
  /// left)` runs the dispatched row step over columns [start, start + n)
  /// and returns their minimum.
  template <typename BaseAtX, typename KernelFn>
  Value ComputeRow(const RowFrame& f, BaseAtX base_at_x, KernelFn kernel) {
    Value rmin = kInfinity;
    Value left = kInfinity;  // row[x_lo - 1] is a sentinel or band fill.
    std::size_t start = f.lo;
    const std::size_t phase = (f.lo - 1) % simd::kRowBlock;
    if (phase != 0) {
      const std::size_t x0 = f.lo - phase;  // Block-aligned column.
      const std::size_t m = f.hi - f.lo < simd::kRowBlock - phase
                                ? f.hi - f.lo
                                : simd::kRowBlock - phase;
      left = simd::internal::PaddedScanBlock(
          [&](std::size_t k) { return base_at_x(x0 + k); }, f.prev + x0,
          f.row + x0, phase, m, left, &rmin);
      start = f.lo + m;
    }
    if (start < f.hi) {
      const Value kernel_min = kernel(start, f.hi - start, left);
      rmin = rmin < kernel_min ? rmin : kernel_min;
    }
    return rmin;
  }

  /// Row 0: gamma(x, 1) = base(x - 1) + gamma(x - 1, 1); the entry cell
  /// x == 1 uses 0 (diagonal entry (0,0)->(1,1) exists only on row 0). A
  /// sequential prefix sum — one canonical order, identical on every
  /// backend; rows are pushed far more often than tables are started, so
  /// this is not worth vectorizing. With a band, row 0's range always
  /// starts at x == 1.
  template <typename BaseFn>
  Value Row0PrefixSum(BaseFn base, const RowFrame& f) {
    Value left = 0.0;
    Value rmin = kInfinity;
    for (std::size_t x = f.lo; x < f.hi; ++x) {
      left = base(x - 1) + left;
      f.row[x] = left;
      rmin = rmin < left ? rmin : left;
    }
    return rmin;
  }

  std::span<const Value> query_;
  std::size_t query_len_;
  Pos band_;
  // Dispatch is resolved once per table: the active backend cannot change
  // mid-build (SetBackend is documented as switch-between-searches only),
  // and hoisting the lookup keeps it off the per-push hot path.
  const simd::KernelTable* kernels_ = &simd::Kernels();
  simd::AlignedVector scratch_;
  std::uint64_t cells_computed_ = 0;
};

}  // namespace internal

/// Incremental cumulative time-warping distance table (paper Definition 2).
///
/// The query Q is fixed along the columns (x axis); data elements are
/// appended as rows (y axis). After pushing row y:
///   * LastColumn() is D_tw(Q, data[1:y])  — the distance between Q and the
///     data prefix of length y (paper Section 3: "by reading the last column
///     of each row ... we get the distance between S_i and any prefix");
///   * RowMin() is the minimum over all columns of row y. By Theorem 1, if
///     RowMin() > epsilon, no extension of the data prefix can bring the
///     distance back to <= epsilon, so the branch can be pruned. The minimum
///     is recorded while the row is computed, so RowMin() is O(1).
///
/// Rows can be popped, which makes the table usable as a DFS stack over a
/// suffix tree: all suffixes sharing a prefix share the prefix's rows
/// (the R_d table-sharing factor of Section 4.3).
///
/// Rows may be pushed either from exact numeric values (PushRowValue, the
/// D_tw recurrence) or from category intervals (PushRowInterval, the
/// D_tw-lb recurrence of Definition 3). Mixing both in one table is legal:
/// each row's base distance is independent of the others'.
///
/// An optional Sakoe-Chiba band constrains |x - y| <= band; cells outside
/// the band are +infinity. Used by the length-bounded index extension.
/// Rows are computed by internal::RowRecurrence (see there for the
/// dataflow and the band's ULP-level monotonicity).
class WarpingTable {
 public:
  /// Default for `depth_hint` when the caller has no estimate.
  static constexpr std::size_t kDefaultDepthHint = 64;

  /// Creates an empty table for query `query`. The span must stay valid for
  /// the lifetime of the table. `band = 0` means unconstrained warping.
  /// `depth_hint` is the expected number of simultaneously live rows (DFS
  /// depth, or sequence length for scans); it only pre-sizes the cell
  /// storage so that deep traversals do not grow the vector — and copy
  /// every live row — repeatedly. It is not a limit.
  explicit WarpingTable(std::span<const Value> query, Pos band = 0,
                        std::size_t depth_hint = kDefaultDepthHint)
      : rec_(query, query.size(), band) {
    ReserveDepth(depth_hint);
  }

  /// Length-only constructor for callers that push rows with PushRowCustom
  /// (e.g. the multivariate extension, where elements are vectors and the
  /// base distances cannot be derived from a Value span). PushRowValue /
  /// PushRowInterval are illegal on such a table unless BindQuery() is
  /// called first.
  explicit WarpingTable(std::size_t query_length, Pos band,
                        std::size_t depth_hint = kDefaultDepthHint)
      : rec_({}, query_length, band) {
    ReserveDepth(depth_hint);
  }

  WarpingTable(const WarpingTable&) = delete;
  WarpingTable& operator=(const WarpingTable&) = delete;

  /// Binds (or re-binds) the query span of a table built with the
  /// length-only constructor, enabling PushRowValue / PushRowInterval.
  /// The length must match; the span must outlive the table's use of it.
  void BindQuery(std::span<const Value> query) { rec_.BindQuery(query); }

  /// Appends the exact-D_tw row for data element `v`.
  void PushRowValue(Value v) {
    Value* row = AppendRow();
    FinishRow(rec_.StepValue(num_rows_, PrevRow(), row, v));
  }

  /// Appends the D_tw-lb row for a category interval [lb, ub].
  void PushRowInterval(Value lb, Value ub) {
    Value* row = AppendRow();
    FinishRow(rec_.StepInterval(num_rows_, PrevRow(), row, lb, ub));
  }

  /// Appends a row with caller-supplied base distances: `base(x)` must
  /// return D_base(Q[x+1], element) for query index x (0-based).
  template <typename BaseFn>
  void PushRowCustom(BaseFn base) {
    Value* row = AppendRow();
    FinishRow(rec_.StepCustom(num_rows_, PrevRow(), row, base));
  }

  /// Removes the most recently pushed row.
  void PopRow() {
    TSW_DCHECK(num_rows_ > 0);
    cells_.resize(cells_.size() - Width());
    row_mins_.pop_back();
    --num_rows_;
  }

  /// Removes the `n` most recently pushed rows.
  void PopRows(std::size_t n) {
    TSW_DCHECK(n <= num_rows_);
    cells_.resize(cells_.size() - n * Width());
    row_mins_.resize(row_mins_.size() - n);
    num_rows_ -= n;
  }

  /// Removes every row, keeping the allocated capacity and the
  /// cells_computed() accumulator. Lets one table serve many independent
  /// traversals (scan starts, parallel branch tasks) without re-allocating
  /// or losing the cost accounting.
  void Reset() {
    cells_.clear();
    row_mins_.clear();
    num_rows_ = 0;
  }

  /// Number of data rows currently in the table.
  std::size_t NumRows() const { return num_rows_; }

  bool Empty() const { return num_rows_ == 0; }

  /// D_tw(Q, data-prefix) after the last pushed row. Requires NumRows() > 0.
  Value LastColumn() const {
    TSW_DCHECK(num_rows_ > 0);
    return cells_.back();
  }

  /// Minimum column value of the last pushed row (Theorem 1 pruning test).
  /// O(1): recorded while the row was computed. Requires NumRows() > 0.
  Value RowMin() const {
    TSW_DCHECK(num_rows_ > 0);
    return row_mins_.back();
  }

  /// Number of table cells computed since construction (cost accounting for
  /// the R_d analysis and the bench counters). Out-of-band +infinity fills
  /// are not counted, matching the paper's cell-count model.
  std::uint64_t cells_computed() const { return rec_.cells_computed(); }

  std::span<const Value> query() const { return rec_.query(); }
  std::size_t query_length() const { return rec_.query_length(); }
  Pos band() const { return rec_.band(); }

 private:
  std::size_t Width() const { return rec_.Width(); }

  void ReserveDepth(std::size_t depth_hint) {
    if (depth_hint == 0) depth_hint = 1;
    cells_.reserve(Width() * depth_hint);
    row_mins_.reserve(depth_hint);
  }

  /// Grows the cell storage by one row and returns it (row num_rows_).
  Value* AppendRow() {
    cells_.resize(cells_.size() + Width());
    return cells_.data() + num_rows_ * Width();
  }

  const Value* PrevRow() const {
    return num_rows_ > 0 ? cells_.data() + (num_rows_ - 1) * Width()
                         : nullptr;
  }

  void FinishRow(Value row_min) {
    row_mins_.push_back(row_min);
    ++num_rows_;
  }

  internal::RowRecurrence rec_;
  simd::AlignedVector cells_;
  std::vector<Value> row_mins_;
  std::size_t num_rows_ = 0;
};

/// Forward-only cumulative table for scanning one start: the rows of
/// WarpingTable, bit for bit, but only the last two are kept — the row
/// being computed and its predecessor — so the storage is a fixed
/// 2 * (|Q| + 1) cells, allocated once and never regrown however long the
/// scan runs. The absolute row index is still tracked, so a Sakoe-Chiba
/// band clips every row exactly as WarpingTable's would.
class ScanTable {
 public:
  /// See WarpingTable's constructors: `query` is bound for PushRowValue;
  /// the length-only form serves PushRowCustom (multivariate) callers and
  /// may be bound later.
  explicit ScanTable(std::span<const Value> query, Pos band = 0)
      : rec_(query, query.size(), band), cells_(2 * rec_.Width()) {}
  ScanTable(std::size_t query_length, Pos band)
      : rec_({}, query_length, band), cells_(2 * rec_.Width()) {}

  ScanTable(const ScanTable&) = delete;
  ScanTable& operator=(const ScanTable&) = delete;

  void BindQuery(std::span<const Value> query) { rec_.BindQuery(query); }

  /// Appends the exact-D_tw row for data element `v`.
  void PushRowValue(Value v) {
    row_min_ = rec_.StepValue(num_rows_, PrevRow(), Row(num_rows_), v);
    ++num_rows_;
  }

  /// Appends a row with caller-supplied base distances (see
  /// WarpingTable::PushRowCustom).
  template <typename BaseFn>
  void PushRowCustom(BaseFn base) {
    row_min_ = rec_.StepCustom(num_rows_, PrevRow(), Row(num_rows_), base);
    ++num_rows_;
  }

  /// Starts a new scan; keeps the storage and the cells_computed()
  /// accumulator.
  void Reset() { num_rows_ = 0; }

  /// Rows pushed since the last Reset() (the absolute index of the next).
  std::size_t NumRows() const { return num_rows_; }

  /// D_tw(Q, data-prefix) after the last pushed row. Requires NumRows() > 0.
  Value LastColumn() const {
    TSW_DCHECK(num_rows_ > 0);
    return cells_[((num_rows_ - 1) & 1) * rec_.Width() + rec_.Width() - 1];
  }

  /// Minimum column value of the last pushed row (Theorem 1).
  Value RowMin() const {
    TSW_DCHECK(num_rows_ > 0);
    return row_min_;
  }

  /// Cells computed since construction (see WarpingTable).
  std::uint64_t cells_computed() const { return rec_.cells_computed(); }

 private:
  Value* Row(std::size_t y) { return cells_.data() + (y & 1) * rec_.Width(); }
  const Value* PrevRow() {
    return num_rows_ > 0 ? Row(num_rows_ - 1) : nullptr;
  }

  internal::RowRecurrence rec_;
  simd::AlignedVector cells_;
  Value row_min_ = kInfinity;
  std::size_t num_rows_ = 0;
};

}  // namespace tswarp::dtw

#endif  // TSWARP_DTW_WARPING_TABLE_H_
