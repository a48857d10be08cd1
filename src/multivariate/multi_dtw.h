#ifndef TSWARP_MULTIVARIATE_MULTI_DTW_H_
#define TSWARP_MULTIVARIATE_MULTI_DTW_H_

#include <span>

#include "common/types.h"

namespace tswarp::mv {

/// City-block base distance between two `dim`-dimensional elements:
/// sum_d |a_d - b_d| (the natural multivariate extension of the paper's
/// D_base).
Value MultiBaseDistance(std::span<const Value> a, std::span<const Value> b);

/// Exact multivariate time warping distance between flattened sequences
/// `a` (a_len elements) and `b` (b_len elements), each element `dim` wide.
/// `band` is an optional Sakoe-Chiba constraint (0 = unconstrained, the
/// paper's setting).
Value MultiDtwDistance(std::span<const Value> a, std::size_t a_len,
                       std::span<const Value> b, std::size_t b_len,
                       std::size_t dim, Pos band = 0);

}  // namespace tswarp::mv

#endif  // TSWARP_MULTIVARIATE_MULTI_DTW_H_
