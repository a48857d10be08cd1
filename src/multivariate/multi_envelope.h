#ifndef TSWARP_MULTIVARIATE_MULTI_ENVELOPE_H_
#define TSWARP_MULTIVARIATE_MULTI_ENVELOPE_H_

#include <span>
#include <vector>

#include "common/types.h"
#include "dtw/envelope.h"

namespace tswarp::mv {

/// Per-dimension envelope set of a multivariate query: one univariate
/// QueryEnvelope over each dimension's projection Q_d.
///
/// Because the multivariate base distance is the city-block sum over
/// dimensions, any warping path P satisfies
///
///   cost_mv(P) = sum_d cost_d(P)  >=  sum_d min_P' cost_d(P')
///              = sum_d D_tw(Q_d, S_d),
///
/// so the sum over dimensions of any univariate lower bound on
/// D_tw(Q_d, S_d) lower-bounds the multivariate D_tw(Q, S); the same
/// split holds per data element, which is how the running bound of the
/// exact scan uses it (mv::MultiSuffix). The argument restricts paths
/// identically under a Sakoe-Chiba band, so the bound stays valid banded.
class MultiQueryEnvelope {
 public:
  /// `query` is the flattened query (query_len elements, `dim` wide);
  /// copied per dimension, so it need not outlive the envelope.
  MultiQueryEnvelope(std::span<const Value> query, std::size_t query_len,
                     std::size_t dim, Pos band);

  std::size_t dim() const { return dims_.size(); }
  Pos band() const { return band_; }

  const dtw::QueryEnvelope& envelope(std::size_t d) const {
    return dims_[d].envelope;
  }

 private:
  struct Dimension {
    // Projection Q_d; owns the envelope's span.
    dtw::simd::AlignedVector query;
    dtw::QueryEnvelope envelope;
  };

  Pos band_;
  std::vector<Dimension> dims_;
};

}  // namespace tswarp::mv

#endif  // TSWARP_MULTIVARIATE_MULTI_ENVELOPE_H_
