#include "dtw/envelope.h"

#include <algorithm>

#include "common/logging.h"
#include "dtw/base.h"
#include "dtw/simd.h"

namespace tswarp::dtw {
namespace {

/// Banded sliding-window extrema through the dispatched kernel: for every
/// data offset j in [0, n + band) computes the extrema of
/// seq[max(0, j-band) .. min(n-1, j+band)]. The kernel's branch-free
/// doubling scheme replaced the monotonic-deque pass here: it uses only
/// two-operand min/max, so it vectorizes and stays bitwise identical
/// across backends, and the reused `work` scratch (2 * (n + 3*band)
/// values) keeps the banded LB_Improved hot path allocation-free.
/// Requires band >= 1 (band == 0 takes the unconstrained path) and
/// non-empty seq.
void BandedExtrema(std::span<const Value> seq, Pos band,
                   simd::AlignedVector* lower, simd::AlignedVector* upper,
                   simd::AlignedVector* work) {
  const std::size_t n = seq.size();
  lower->resize(n + band);
  upper->resize(n + band);
  work->resize(2 * (n + 3 * static_cast<std::size_t>(band)));
  simd::Kernels().banded_extrema(seq.data(), n, band, lower->data(),
                                 upper->data(), work->data());
}

}  // namespace

QueryEnvelope::QueryEnvelope(std::span<const Value> query, Pos band)
    : band_(band) {
  TSW_CHECK(!query.empty()) << "envelope of an empty query";
  if (band == 0) {
    // Unconstrained warping: one global interval covers every offset.
    const auto [lo, hi] = std::minmax_element(query.begin(), query.end());
    lower_.assign(1, *lo);
    upper_.assign(1, *hi);
    reach_ = kNoReachLimit;
  } else {
    simd::AlignedVector work;  // Once per query: a local is fine.
    BandedExtrema(query, band, &lower_, &upper_, &work);
    reach_ = lower_.size();
  }
}

Value LbKeogh(const QueryEnvelope& env, std::span<const Value> candidate,
              Value abandon_above) {
  const std::size_t len = candidate.size();
  // Beyond the banded reach some element admits no legal path at all.
  if (len > env.reach()) return kInfinity;
  const simd::KernelTable& k = simd::Kernels();
  if (env.unconstrained()) {
    return k.lb_keogh_const(candidate.data(), env.LowerAt(0), env.UpperAt(0),
                            len, abandon_above);
  }
  return k.lb_keogh(candidate.data(), env.lower().data(), env.upper().data(),
                    len, abandon_above);
}

Value LbImproved(const QueryEnvelope& env, std::span<const Value> query,
                 std::span<const Value> candidate, Value abandon_above,
                 EnvelopeScratch* scratch) {
  TSW_DCHECK(scratch != nullptr);
  const std::size_t len = candidate.size();
  if (len > env.reach()) return kInfinity;  // Beyond banded reach.
  const simd::KernelTable& k = simd::Kernels();
  // Pass 1: LB_Keogh, recording the projection h(S) = clamp(S, envelope)
  // (no early abandon here so the projection is complete; the per-element
  // work is the same).
  simd::AlignedVector& h = scratch->projection;
  h.resize(len);
  Value sum =
      env.unconstrained()
          ? k.lb_improved_pass1_const(candidate.data(), env.LowerAt(0),
                                      env.UpperAt(0), h.data(), len)
          : k.lb_improved_pass1(candidate.data(), env.lower().data(),
                                env.upper().data(), h.data(), len);
  if (sum > abandon_above) return sum;

  // Pass 2: each query element must align with some h-reachable data
  // element, so its distance to the envelope of h(S) adds to the bound
  // (the two terms count disjoint path-cost shares). The kernel's abandon
  // cap is the remaining budget; the returned partial is added back onto
  // pass 1's sum, which keeps the result a valid lower bound either way.
  if (env.unconstrained()) {
    const auto [lo, hi] = std::minmax_element(h.begin(), h.end());
    return sum + k.lb_keogh_const(query.data(), *lo, *hi, query.size(),
                                  abandon_above - sum);
  }
  BandedExtrema(h, env.band(), &scratch->proj_lower, &scratch->proj_upper,
                &scratch->extrema_work);
  // Query index i reaches data offsets [i - band, i + band]; beyond the
  // projection's reach no legal banded path exists at all.
  if (query.size() > scratch->proj_lower.size()) return kInfinity;
  return sum + k.lb_keogh(query.data(), scratch->proj_lower.data(),
                          scratch->proj_upper.data(), query.size(),
                          abandon_above - sum);
}

}  // namespace tswarp::dtw
