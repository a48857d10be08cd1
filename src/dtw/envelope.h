#ifndef TSWARP_DTW_ENVELOPE_H_
#define TSWARP_DTW_ENVELOPE_H_

#include <cstddef>
#include <span>
#include <vector>

#include "common/types.h"
#include "dtw/simd.h"

namespace tswarp::dtw {

/// Min/max envelope of a query, indexed by *data* offset.
///
/// For a data element aligned against offset j (0-based position inside the
/// candidate subsequence), the warping path may only touch query elements
/// Q[i] with |i - j| <= band, so
///
///   lower[j] = min { Q[i] : |i - j| <= band }
///   upper[j] = max { Q[i] : |i - j| <= band }
///
/// and D_base-lb(v, [lower[j], upper[j]]) is a lower bound on the cost any
/// warping path pays for that data element (LB_Keogh's per-element term,
/// "Exact Indexing of Time Series under DTW"). band == 0 means
/// *unconstrained* warping (the paper's setting, matching the WarpingTable
/// convention): every data element may align with any query element, so the
/// envelope degenerates to the global [min Q, max Q] at every offset. The
/// bound stays valid for candidates of any length — only the banded case
/// runs out of reach (offsets j >= |Q| + band admit no legal path).
///
/// Envelopes are built once per query (the dispatched banded_extrema
/// kernel's doubling scheme, O(|Q| log band) branch-free work; one running
/// min/max pass when unconstrained) and shared by every candidate screen
/// of the search.
class QueryEnvelope {
 public:
  QueryEnvelope(std::span<const Value> query, Pos band);

  Pos band() const { return band_; }
  bool unconstrained() const { return band_ == 0; }

  /// Largest data offset with a non-empty query window, plus one. Offsets
  /// >= reach() admit no legal banded path; unconstrained reach is
  /// unlimited (kNoReachLimit).
  std::size_t reach() const { return reach_; }
  static constexpr std::size_t kNoReachLimit = static_cast<std::size_t>(-1);

  /// Lower-bound cost contribution of data value `v` at offset `j`:
  /// D_base-lb(v, [lower[j], upper[j]]), or kInfinity beyond reach().
  Value ElementLb(std::size_t j, Value v) const {
    if (j >= reach_) return kInfinity;
    const std::size_t idx = unconstrained() ? 0 : j;
    if (v > upper_[idx]) return v - upper_[idx];
    if (v < lower_[idx]) return lower_[idx] - v;
    return 0.0;
  }

  /// Envelope interval at offset `j` (requires j < reach()).
  Value LowerAt(std::size_t j) const {
    return lower_[unconstrained() ? 0 : j];
  }
  Value UpperAt(std::size_t j) const {
    return upper_[unconstrained() ? 0 : j];
  }

  /// Raw envelope arrays: length 1 when unconstrained, |Q| + band when
  /// banded (entry j covers data offset j).
  std::span<const Value> lower() const { return lower_; }
  std::span<const Value> upper() const { return upper_; }

 private:
  Pos band_;
  std::size_t reach_;
  simd::AlignedVector lower_;
  simd::AlignedVector upper_;
};

/// Reusable buffers for the two-pass bound; lets callers screen many
/// candidates without re-allocating.
/// Aligned so the dispatched SIMD kernels read them on full-width lanes.
struct EnvelopeScratch {
  simd::AlignedVector projection;  // h(S): S clamped into Q's envelope.
  simd::AlignedVector proj_lower;  // Envelope of the projection (data side).
  simd::AlignedVector proj_upper;
  // Padded scratch for the banded_extrema kernel's doubling passes;
  // reusing it keeps the banded LB_Improved hot path allocation-free.
  simd::AlignedVector extrema_work;
};

/// Pruning threshold for every lower-bound-vs-epsilon screen: a candidate
/// is dismissed only when its bound exceeds LbPruneThreshold(epsilon), not
/// epsilon itself. The envelope bounds and the exact kernel accumulate the
/// same quantities in different floating-point orders (the exact kernel's
/// canonical block-scan vs the bounds' sums), so a bound that *equals* the
/// exact distance in real arithmetic — routine for piecewise-constant data,
/// where the envelope is tight — can land a few ULPs above the computed
/// exact distance. The relative headroom absorbs that reassociation drift;
/// candidates inside it fall through to the exact kernel, which decides
/// membership with the same bits on every engine. The slack is ~1e-12
/// relative: orders of magnitude above accumulated rounding error, orders
/// of magnitude below any meaningful distance gap, so pruning power is
/// unaffected.
inline Value LbPruneThreshold(Value epsilon) {
  return epsilon + 1e-12 * (epsilon < 0 ? -epsilon : epsilon);
}

/// LB_Keogh(Q, S) under `env`'s band: sum over the candidate's elements of
/// their envelope distance. Always <= D_tw(Q, S) (unconstrained) resp.
/// <= the banded D_tw. Abandons the accumulation once the partial sum
/// exceeds `abandon_above`; the returned partial sum is still a valid
/// lower bound (remaining terms are non-negative).
Value LbKeogh(const QueryEnvelope& env, std::span<const Value> candidate,
              Value abandon_above = kInfinity);

/// Lemire's two-pass bound LB_Improved(Q, S) >= LB_Keogh(Q, S): the first
/// pass is LB_Keogh and records the projection h(S) of the candidate onto
/// Q's envelope; the second adds LB_Keogh(S-side): the distance from each
/// query element to the envelope of h(S). ("Faster Retrieval with a
/// Two-Pass Dynamic-Time-Warping Lower Bound".) Abandons after either pass
/// once the sum exceeds `abandon_above`. `scratch` must be non-null.
Value LbImproved(const QueryEnvelope& env, std::span<const Value> query,
                 std::span<const Value> candidate, Value abandon_above,
                 EnvelopeScratch* scratch);

}  // namespace tswarp::dtw

#endif  // TSWARP_DTW_ENVELOPE_H_
