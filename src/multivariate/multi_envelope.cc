#include "multivariate/multi_envelope.h"

#include "common/logging.h"
#include "dtw/simd.h"

namespace tswarp::mv {

MultiQueryEnvelope::MultiQueryEnvelope(std::span<const Value> query,
                                       std::size_t query_len,
                                       std::size_t dim, Pos band)
    : band_(band) {
  TSW_CHECK(query_len > 0 && dim > 0);
  TSW_CHECK(query.size() == query_len * dim);
  dims_.reserve(dim);
  for (std::size_t d = 0; d < dim; ++d) {
    dtw::simd::AlignedVector projection(query_len);
    dtw::simd::Kernels().strided_gather(query.data() + d, dim,
                                        projection.data(), query_len);
    dtw::QueryEnvelope envelope(projection, band);
    dims_.push_back(Dimension{std::move(projection), std::move(envelope)});
  }
}

}  // namespace tswarp::mv
