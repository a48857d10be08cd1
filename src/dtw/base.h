#ifndef TSWARP_DTW_BASE_H_
#define TSWARP_DTW_BASE_H_

#include <cmath>

#include "common/types.h"

namespace tswarp::dtw {

/// City-block base distance between two element values (paper Definition 1,
/// D_base(a, b) = |a - b|).
inline Value BaseDistance(Value a, Value b) { return std::fabs(a - b); }

/// Lower-bound base distance between a numeric value `a` and a category
/// interval [lb, ub] (paper Definition 3, D_base-lb): the smallest possible
/// |a - b| over all b in [lb, ub].
inline Value BaseDistanceLb(Value a, Value lb, Value ub) {
  if (a > ub) return a - ub;
  if (a < lb) return lb - a;
  return 0.0;
}

/// Second-level lower bound for suffixes inside a run of equal leading
/// symbols (paper Definition 4, D_tw-lb2). Given
///   lb  = D_tw-lb(Q, CS[s:-])   for a stored suffix starting a run,
///   first_elem_lb = D_base-lb(Q[1], CS[s]),
/// the distance to the non-stored suffix CS[s+skipped:-] is lower-bounded by
///   lb - skipped * first_elem_lb.
/// Clamped at zero since DTW distances are non-negative.
inline Value LowerBound2(Value lb, Pos skipped, Value first_elem_lb) {
  Value v = lb - static_cast<Value>(skipped) * first_elem_lb;
  return v < 0.0 ? 0.0 : v;
}

}  // namespace tswarp::dtw

#endif  // TSWARP_DTW_BASE_H_
