// NEON backend (AArch64): canonical 4-lane groups as pairs of float64x2_t.
// min/max are built from an explicit compare + bit-select —
// vbsl(a < b, a, b) returns b on equality, exactly the scalar MinPd and
// x86 minpd rule — rather than FMIN/FMAX, whose IEEE-754-2008 minNum
// semantics order signed zeros differently and would break the cross-
// backend bitwise contract. vabsq_f64 clears the sign bit like andnot on
// x86. NEON is baseline on AArch64, so this file needs no extra flags.

#include "dtw/simd_internal.h"

#if defined(__aarch64__) && defined(__ARM_NEON)

#include <arm_neon.h>

namespace tswarp::dtw::simd {
namespace {

namespace in = internal;

/// One canonical 4-lane group.
struct V4 {
  float64x2_t lo;  // lanes 0, 1
  float64x2_t hi;  // lanes 2, 3
};

inline V4 Set1(Value v) {
  const float64x2_t x = vdupq_n_f64(v);
  return {x, x};
}
inline V4 Load(const Value* p) { return {vld1q_f64(p), vld1q_f64(p + 2)}; }
inline void Store(Value* p, V4 x) {
  vst1q_f64(p, x.lo);
  vst1q_f64(p + 2, x.hi);
}
inline V4 Add(V4 a, V4 b) {
  return {vaddq_f64(a.lo, b.lo), vaddq_f64(a.hi, b.hi)};
}
inline V4 Sub(V4 a, V4 b) {
  return {vsubq_f64(a.lo, b.lo), vsubq_f64(a.hi, b.hi)};
}
/// a < b ? a : b per lane (returns b on equality, like MinPd / minpd).
inline float64x2_t MinPair(float64x2_t a, float64x2_t b) {
  return vbslq_f64(vcltq_f64(a, b), a, b);
}
/// a > b ? a : b per lane (returns b on equality, like MaxPd / maxpd).
inline float64x2_t MaxPair(float64x2_t a, float64x2_t b) {
  return vbslq_f64(vcgtq_f64(a, b), a, b);
}
inline V4 Min(V4 a, V4 b) {
  return {MinPair(a.lo, b.lo), MinPair(a.hi, b.hi)};
}
inline V4 Max(V4 a, V4 b) {
  return {MaxPair(a.lo, b.lo), MaxPair(a.hi, b.hi)};
}
inline V4 Abs(V4 x) { return {vabsq_f64(x.lo), vabsq_f64(x.hi)}; }

/// Lanes shifted up by one: {fill[0], x[0], x[1], x[2]}.
inline V4 ShiftUp1(V4 x, V4 fill) {
  return {vextq_f64(vdupq_laneq_f64(fill.lo, 0), x.lo, 1),
          vextq_f64(x.lo, x.hi, 1)};
}

/// Lanes shifted up by two: {fill[0], fill[1], x[0], x[1]}.
inline V4 ShiftUp2(V4 x, V4 fill) { return {fill.lo, x.lo}; }

/// Broadcast of lane 3.
inline V4 Lane3(V4 x) {
  const float64x2_t b = vdupq_laneq_f64(x.hi, 1);
  return {b, b};
}

/// 4-lane inclusive +scan (canonical Scan4Add).
inline V4 Scan4Add(V4 b, V4 zero) {
  const V4 s1 = Add(b, ShiftUp1(b, zero));
  return Add(s1, ShiftUp2(s1, zero));
}

/// 4-lane inclusive min-scan (canonical Scan4Min; operand order u, shifted).
inline V4 Scan4Min(V4 u, V4 inf) {
  const V4 s1 = Min(u, ShiftUp1(u, inf));
  return Min(s1, ShiftUp2(s1, inf));
}

/// Exact min-reduce of 4 lanes.
inline Value ReduceMin(V4 x) {
  const float64x2_t m = MinPair(x.lo, x.hi);
  return in::MinPd(vgetq_lane_f64(m, 0), vgetq_lane_f64(m, 1));
}

struct ValueBase {
  const Value* q;
  Value v;
  V4 vv;
  V4 Block(std::size_t i) const { return Abs(Sub(Load(q + i), vv)); }
  Value At(std::size_t i) const { return in::AbsDiff(q[i], v); }
};

struct IntervalBase {
  const Value* q;
  Value lb, ub;
  V4 vlb, vub, zero;
  V4 Block(std::size_t i) const {
    const V4 x = Load(q + i);
    return Max(Max(Sub(x, vub), Sub(vlb, x)), zero);
  }
  Value At(std::size_t i) const { return in::IntervalDist(q[i], lb, ub); }
};

struct ArrayBase {
  const Value* base;
  V4 Block(std::size_t i) const { return Load(base + i); }
  Value At(std::size_t i) const { return base[i]; }
};

/// The canonical row step (ScanBlock8 + PaddedScanBlock) on paired NEON
/// vectors.
template <typename B>
Value RowStep(const B& b, const Value* prev, Value* row, std::size_t n,
              Value left) {
  const V4 inf = Set1(kInfinity);
  const V4 zero = Set1(0.0);
  V4 carry = Set1(left);
  V4 vmin = inf;
  std::size_t i = 0;
  for (; i + kRowBlock <= n; i += kRowBlock) {
    const V4 b0 = b.Block(i);
    const V4 b1 = b.Block(i + 4);
    const V4 mp0 = Min(Load(prev + i), Load(prev + i - 1));
    const V4 mp1 = Min(Load(prev + i + 4), Load(prev + i + 3));
    const V4 p0 = Scan4Add(b0, zero);
    const V4 p0_top = Lane3(p0);
    const V4 p1 = Add(Scan4Add(b1, zero), p0_top);
    const V4 u0 = Sub(mp0, ShiftUp1(p0, zero));
    const V4 u1 = Sub(mp1, ShiftUp1(p1, p0_top));
    const V4 m0 = Scan4Min(u0, inf);
    const V4 m1 = Min(Scan4Min(u1, inf), Lane3(m0));
    const V4 r0 = Add(p0, Min(carry, m0));
    const V4 r1 = Add(p1, Min(carry, m1));
    Store(row + i, r0);
    Store(row + i + 4, r1);
    vmin = Min(vmin, Min(r0, r1));
    carry = Lane3(r1);
  }
  Value row_min = ReduceMin(vmin);
  if (i < n) {
    in::PaddedScanBlock([&b, i](std::size_t k) { return b.At(i + k); },
                        prev + i, row + i, 0, n - i,
                        vgetq_lane_f64(carry.lo, 0), &row_min);
  }
  return row_min;
}

Value RowStepValue(const Value* q, Value v, const Value* prev, Value* row,
                   std::size_t n, Value left) {
  return RowStep(ValueBase{q, v, Set1(v)}, prev, row, n, left);
}

Value RowStepInterval(const Value* q, Value lb, Value ub, const Value* prev,
                      Value* row, std::size_t n, Value left) {
  return RowStep(IntervalBase{q, lb, ub, Set1(lb), Set1(ub), Set1(0.0)},
                 prev, row, n, left);
}

Value RowStepBase(const Value* base, const Value* prev, Value* row,
                  std::size_t n, Value left) {
  return RowStep(ArrayBase{base}, prev, row, n, left);
}

void BandedExtrema(const Value* seq, std::size_t n, std::size_t band,
                   Value* lower, Value* upper, Value* work) {
  // In-place with dst == src is safe in 2-wide chunks: both operands are
  // loaded before the same iteration's store, and later iterations only
  // read slots past every store so far (s >= 1, ascending j). MinPair /
  // MaxPair keep the second-operand-on-equality rule, so the padded
  // +-infinity lanes and ties resolve exactly like the scalar backend.
  in::BandedExtremaGeneric(
      seq, n, band, lower, upper, work,
      [](const Value* min_src, Value* min_dst, const Value* max_src,
         Value* max_dst, std::size_t count, std::size_t s) {
        std::size_t j = 0;
        for (; j + 2 <= count; j += 2) {
          vst1q_f64(min_dst + j, MinPair(vld1q_f64(min_src + j),
                                         vld1q_f64(min_src + j + s)));
          vst1q_f64(max_dst + j, MaxPair(vld1q_f64(max_src + j),
                                         vld1q_f64(max_src + j + s)));
        }
        for (; j < count; ++j) {
          min_dst[j] = in::MinPd(min_src[j], min_src[j + s]);
          max_dst[j] = in::MaxPd(max_src[j], max_src[j + s]);
        }
      });
}

constexpr KernelTable kTable = {
    "neon",
    RowStepValue,
    RowStepInterval,
    RowStepBase,
    BandedExtrema,
};

}  // namespace

const KernelTable* NeonKernels() { return &kTable; }

}  // namespace tswarp::dtw::simd

#else  // not AArch64 NEON

namespace tswarp::dtw::simd {
const KernelTable* NeonKernels() { return nullptr; }
}  // namespace tswarp::dtw::simd

#endif
