#include "dtw/envelope.h"

#include <algorithm>

#include "common/logging.h"
#include "dtw/simd.h"

namespace tswarp::dtw {

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
    // Banded sliding-window extrema through the dispatched kernel: for
    // every data offset j in [0, n + band) the extrema of
    // query[max(0, j-band) .. min(n-1, j+band)]. The kernel's branch-free
    // doubling scheme uses only two-operand min/max, so it vectorizes and
    // stays bitwise identical across backends.
    const std::size_t n = query.size();
    lower_.resize(n + band);
    upper_.resize(n + band);
    simd::AlignedVector work(2 * (n + 3 * static_cast<std::size_t>(band)));
    simd::Kernels().banded_extrema(query.data(), n, band, lower_.data(),
                                   upper_.data(), work.data());
    reach_ = lower_.size();
  }
}

}  // namespace tswarp::dtw
