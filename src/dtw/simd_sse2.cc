// SSE2 backend: the canonical 4-lane groups are emulated as pairs of
// __m128d (lo = lanes 0-1, hi = lanes 2-3). Every shuffle below produces
// the same lane motion as the AVX2 backend's permutes, and minpd/maxpd
// have the same second-operand-on-equality rule as AVX2 and the scalar
// MinPd/MaxPd, so all three agree bitwise. SSE2 is baseline on x86-64;
// simd.cc still checks __builtin_cpu_supports("sse2") before install.

#include "dtw/simd_internal.h"

#if defined(__SSE2__) || (defined(_M_X64) && !defined(__clang__))

#include <emmintrin.h>

namespace tswarp::dtw::simd {
namespace {

namespace in = internal;

/// One canonical 4-lane group.
struct V4 {
  __m128d lo;  // lanes 0, 1
  __m128d hi;  // lanes 2, 3
};

inline V4 Set1(Value v) {
  const __m128d x = _mm_set1_pd(v);
  return {x, x};
}
inline V4 Load(const Value* p) { return {_mm_loadu_pd(p), _mm_loadu_pd(p + 2)}; }
inline void Store(Value* p, V4 x) {
  _mm_storeu_pd(p, x.lo);
  _mm_storeu_pd(p + 2, x.hi);
}
inline V4 Add(V4 a, V4 b) {
  return {_mm_add_pd(a.lo, b.lo), _mm_add_pd(a.hi, b.hi)};
}
inline V4 Sub(V4 a, V4 b) {
  return {_mm_sub_pd(a.lo, b.lo), _mm_sub_pd(a.hi, b.hi)};
}
inline V4 Min(V4 a, V4 b) {
  return {_mm_min_pd(a.lo, b.lo), _mm_min_pd(a.hi, b.hi)};
}
inline V4 Max(V4 a, V4 b) {
  return {_mm_max_pd(a.lo, b.lo), _mm_max_pd(a.hi, b.hi)};
}
inline V4 Abs(V4 x) {
  const __m128d mask = _mm_set1_pd(-0.0);
  return {_mm_andnot_pd(mask, x.lo), _mm_andnot_pd(mask, x.hi)};
}

/// Lanes shifted up by one: {fill[0], x[0], x[1], x[2]}.
inline V4 ShiftUp1(V4 x, V4 fill) {
  return {_mm_shuffle_pd(fill.lo, x.lo, 0x0),
          _mm_shuffle_pd(x.lo, x.hi, 0x1)};
}

/// Lanes shifted up by two: {fill[0], fill[1], x[0], x[1]}.
inline V4 ShiftUp2(V4 x, V4 fill) { return {fill.lo, x.lo}; }

/// Broadcast of lane 3.
inline V4 Lane3(V4 x) {
  const __m128d b = _mm_unpackhi_pd(x.hi, x.hi);
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
  const __m128d m = _mm_min_pd(x.lo, x.hi);
  return in::MinPd(_mm_cvtsd_f64(m),
                   _mm_cvtsd_f64(_mm_unpackhi_pd(m, m)));
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

/// The canonical row step (ScanBlock8 + PaddedScanBlock) on paired SSE2
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
                        prev + i, row + i, 0, n - i, _mm_cvtsd_f64(carry.lo),
                        &row_min);
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
  // read slots past every store so far (s >= 1, ascending j).
  in::BandedExtremaGeneric(
      seq, n, band, lower, upper, work,
      [](const Value* min_src, Value* min_dst, const Value* max_src,
         Value* max_dst, std::size_t count, std::size_t s) {
        std::size_t j = 0;
        for (; j + 2 <= count; j += 2) {
          _mm_storeu_pd(min_dst + j, _mm_min_pd(_mm_loadu_pd(min_src + j),
                                                _mm_loadu_pd(min_src + j + s)));
          _mm_storeu_pd(max_dst + j, _mm_max_pd(_mm_loadu_pd(max_src + j),
                                                _mm_loadu_pd(max_src + j + s)));
        }
        for (; j < count; ++j) {
          min_dst[j] = in::MinPd(min_src[j], min_src[j + s]);
          max_dst[j] = in::MaxPd(max_src[j], max_src[j + s]);
        }
      });
}

constexpr KernelTable kTable = {
    "sse2",
    RowStepValue,
    RowStepInterval,
    RowStepBase,
    BandedExtrema,
};

}  // namespace

const KernelTable* Sse2Kernels() { return &kTable; }

}  // namespace tswarp::dtw::simd

#else  // no SSE2 at compile time

namespace tswarp::dtw::simd {
const KernelTable* Sse2Kernels() { return nullptr; }
}  // namespace tswarp::dtw::simd

#endif
