#ifndef TSWARP_DTW_SIMD_INTERNAL_H_
#define TSWARP_DTW_SIMD_INTERNAL_H_

#include <cmath>
#include <cstddef>

#include "common/types.h"
#include "dtw/simd.h"

/// Canonical scalar building blocks shared by every backend translation
/// unit. The vector backends must mirror these exactly — same association
/// of additions, same shift/scan structure, same min/max operand order —
/// so that all backends produce bitwise-identical results.
///
/// MinPd/MaxPd replicate the x86 minpd/maxpd selection rule — return the
/// SECOND operand when the operands compare equal (which is where +0.0
/// and -0.0 differ) — so scalar and vector code agree bit-for-bit as long
/// as both pass operands in the same order. NaN never reaches a kernel
/// (base distances are finite; +infinity only ever meets finite values).
/// NEON backends must select via explicit compare+bitselect, not
/// FMIN/FMAX, which order signed zeros differently.

namespace tswarp::dtw::simd::internal {

inline Value MinPd(Value a, Value b) { return a < b ? a : b; }
inline Value MaxPd(Value a, Value b) { return a > b ? a : b; }

/// |a - b| via sign-bit clear (std::fabs), matching the vector backends'
/// andnot(-0.0, x) — both map -0.0 to +0.0.
inline Value AbsDiff(Value a, Value b) { return std::fabs(a - b); }

/// D_base-lb as max(max(v - up, lo - v), +0.0) — the branch-free form the
/// vector backends use; identical values to the branching BaseDistanceLb
/// (the final max against +0.0 also canonicalizes any -0.0 away).
inline Value IntervalDist(Value v, Value lo, Value up) {
  return MaxPd(MaxPd(v - up, lo - v), 0.0);
}

/// 4-lane Hillis-Steele inclusive +scan: the canonical association is
///   s1[i] = b[i] + b[i-1]   (shift-by-1, zero shifted in)
///   out[i] = s1[i] + s1[i-2] (shift-by-2)
/// giving out = {b0, b1+b0, (b2+b1)+b0, (b3+b2)+(b1+b0)}.
inline void Scan4Add(const Value b[4], Value out[4]) {
  const Value s1_1 = b[1] + b[0];
  const Value s1_2 = b[2] + b[1];
  const Value s1_3 = b[3] + b[2];
  out[0] = b[0];
  out[1] = s1_1;
  out[2] = s1_2 + b[0];
  out[3] = s1_3 + s1_1;
}

/// 4-lane inclusive min-scan with the same shift structure (+infinity
/// shifted in). min is exact, so only signed-zero handling needs the
/// operand-order discipline of MinPd.
inline void Scan4Min(const Value u[4], Value out[4]) {
  const Value s1_1 = MinPd(u[1], u[0]);
  const Value s1_2 = MinPd(u[2], u[1]);
  const Value s1_3 = MinPd(u[3], u[2]);
  out[0] = u[0];
  out[1] = s1_1;
  out[2] = MinPd(s1_2, u[0]);
  out[3] = MinPd(s1_3, s1_1);
}

/// One canonical row-step scan block of kRowBlock == 8 cells (see
/// docs/algorithms.md "two-pass row step"). Inputs are the 8 base
/// distances and the 8 pairwise previous-row minima
/// mp[i] = min(prev[i], prev[i-1]); `left` is row[-1]. Writes row[0..8)
/// and returns row[7] (the next block's carry).
///
/// Derivation: unrolling row[i] = base[i] + min(row[i-1], mp[i]) gives
///   row[i] = P[i] + min(left, min_{j<=i}(mp[j] - P[j-1]))
/// with P the inclusive prefix sum of base and P[-1] = 0. The formula
/// holds exactly in real arithmetic; in floating point it fixes ONE
/// canonical rounding (the scans above), which every backend reproduces.
inline Value ScanBlock8(const Value base[8], const Value mp[8], Value left,
                        Value* row) {
  // P: two 4-lane scans; the high group adds the low group's total.
  Value p_lo[4];
  Value p_hi[4];
  Scan4Add(base, p_lo);
  Scan4Add(base + 4, p_hi);
  Value P[8];
  for (int i = 0; i < 4; ++i) P[i] = p_lo[i];
  for (int i = 0; i < 4; ++i) P[4 + i] = p_hi[i] + p_lo[3];
  // u[i] = mp[i] - P[i-1] (P[-1] = 0). P is finite (base distances are
  // finite), so +infinity in mp propagates cleanly and no NaN can form.
  Value u[8];
  u[0] = mp[0];
  for (int i = 1; i < 8; ++i) u[i] = mp[i] - P[i - 1];
  // M: running min of u with the same two-group scan structure.
  Value m_lo[4];
  Value m_hi[4];
  Scan4Min(u, m_lo);
  Scan4Min(u + 4, m_hi);
  Value M[8];
  for (int i = 0; i < 4; ++i) M[i] = m_lo[i];
  for (int i = 0; i < 4; ++i) M[4 + i] = MinPd(m_hi[i], m_lo[3]);
  for (int i = 0; i < 8; ++i) row[i] = P[i] + MinPd(left, M[i]);
  return row[7];
}

/// One padded scan block: the canonical block dataflow applied to a block
/// that is only partially covered by computed cells. Lanes [0, lead) are
/// out-of-band on the left (a banded row starting mid-block): they keep
/// their REAL base distances — so the prefix sum P is independent of where
/// the band starts — but their mp is forced to +infinity (no warping path
/// may pass through an out-of-band cell; the stored prev values there
/// belong to the previous row's band and must not leak in). Lanes
/// [lead, lead + m) are the computed cells, written to row. Lanes beyond
/// are trailing padding (base 0, mp +infinity) whose lanes are discarded —
/// the scans are causal (lane j depends only on lanes <= j), so trailing
/// padding never perturbs a computed lane.
///
/// Every partial block goes through here — in every backend — so a cell's
/// floating-point dataflow depends only on its absolute column, never on
/// how the band clips the row. Together with the monotonicity of every
/// operation involved (and of rounding), that makes banded distances
/// exactly monotone in the band width. `base_at(k)` must be valid for
/// lanes [0, lead + m); `prev`/`row` point at the block's first lane
/// (prev[-1] readable). Returns the value of lane lead + m - 1 (the
/// carry when the block is full).
template <typename BaseAt>
inline Value PaddedScanBlock(BaseAt base_at, const Value* prev, Value* row,
                             std::size_t lead, std::size_t m, Value left,
                             Value* row_min) {
  Value base[kRowBlock];
  Value mp[kRowBlock];
  const std::size_t end = lead + m;
  for (std::size_t k = 0; k < kRowBlock; ++k) {
    if (k < lead) {
      base[k] = base_at(k);
      mp[k] = kInfinity;
    } else if (k < end) {
      base[k] = base_at(k);
      mp[k] = MinPd(prev[k], prev[k - 1]);
    } else {
      base[k] = 0.0;
      mp[k] = kInfinity;
    }
  }
  Value cells[kRowBlock];
  ScanBlock8(base, mp, left, cells);
  for (std::size_t k = lead; k < end; ++k) {
    row[k] = cells[k];
    *row_min = MinPd(*row_min, cells[k]);
  }
  return cells[end - 1];
}

/// Generic canonical row step: full scan blocks of 8, one padded block for
/// any remainder. The scalar backend uses this directly; vector backends
/// replace the full-block body with vector code but keep this exact
/// structure (and share PaddedScanBlock for the remainder).
template <typename BaseAt>
inline Value RowStepGeneric(BaseAt base_at, const Value* prev, Value* row,
                            std::size_t n, Value left) {
  Value row_min = kInfinity;
  std::size_t i = 0;
  for (; i + kRowBlock <= n; i += kRowBlock) {
    Value base[kRowBlock];
    Value mp[kRowBlock];
    for (std::size_t k = 0; k < kRowBlock; ++k) {
      base[k] = base_at(i + k);
      mp[k] = MinPd(prev[i + k], prev[i + k - 1]);
    }
    left = ScanBlock8(base, mp, left, row + i);
    for (std::size_t k = 0; k < kRowBlock; ++k) {
      row_min = MinPd(row_min, row[i + k]);
    }
  }
  if (i < n) {
    PaddedScanBlock([&](std::size_t k) { return base_at(i + k); }, prev + i,
                    row + i, 0, n - i, left, &row_min);
  }
  return row_min;
}

/// Canonical sliding-window extrema (the banded query envelope of the
/// running lower bound): for every data offset j in [0, n + band) computes
///
///   lower[j] = min seq[max(0, j-band) .. min(n-1, j+band)]
///   upper[j] = max seq[...same window...]
///
/// via sparse-table doubling: the sequence is padded into `work` (size
/// 2 * (n + 3*band); the first half is the min side, padded with +inf,
/// the second half the max side, padded with -inf), then log2(window)
/// in-place passes work[i] = min(work[i], work[i + s]) with s = 1, 2,
/// 4, ... grow each slot's covered span to the largest power of two
/// p <= window, and the final pass combines the two overlapping p-spans
/// of each window into lower/upper. Every operation is an exact
/// two-operand min/max with MinPd/MaxPd operand order, so all backends
/// produce bitwise-identical envelopes; unlike the classic monotonic
/// deque this dataflow is branch-free and elementwise-vectorizable. The
/// min and max sides run fused in one pass over both halves — two
/// independent dependency chains per loop for the price of one set of
/// loop control.
///
/// `pass(min_src, min_dst, max_src, max_dst, count, s)` must compute
/// min_dst[j] = MinPd(min_src[j], min_src[j + s]) and max_dst[j] =
/// MaxPd(max_src[j], max_src[j + s]) for j in [0, count), reading each
/// src slot before any write lands on it when dst == src and processing
/// j in ascending order (s >= 1 makes ascending in-place reads see only
/// unwritten slots). Requires band >= 1 and n >= 1.
template <typename PassFn>
inline void BandedExtremaGeneric(const Value* seq, std::size_t n,
                                 std::size_t band, Value* lower, Value* upper,
                                 Value* work, PassFn pass) {
  const std::size_t w = 2 * band + 1;  // Window width (odd, >= 3).
  const std::size_t m = n + 3 * band;  // Padded length (per side).
  const std::size_t reach = n + band;  // Output offsets.
  std::size_t p = 1;
  while (p * 2 <= w) p *= 2;
  Value* wmin = work;
  Value* wmax = work + m;
  for (std::size_t i = 0; i < band; ++i) {
    wmin[i] = kInfinity;
    wmax[i] = -kInfinity;
  }
  for (std::size_t i = 0; i < n; ++i) {
    wmin[band + i] = seq[i];
    wmax[band + i] = seq[i];
  }
  for (std::size_t i = band + n; i < m; ++i) {
    wmin[i] = kInfinity;
    wmax[i] = -kInfinity;
  }
  for (std::size_t s = 1; s < p; s *= 2) {
    pass(wmin, wmin, wmax, wmax, m - 2 * s + 1, s);
  }
  pass(wmin, lower, wmax, upper, reach, w - p);
}

}  // namespace tswarp::dtw::simd::internal

#endif  // TSWARP_DTW_SIMD_INTERNAL_H_
