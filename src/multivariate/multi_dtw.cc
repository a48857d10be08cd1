#include "multivariate/multi_dtw.h"

#include <cmath>

#include "common/logging.h"
#include "dtw/warping_table.h"

namespace tswarp::mv {

Value MultiBaseDistance(std::span<const Value> a, std::span<const Value> b) {
  TSW_DCHECK(a.size() == b.size());
  Value d = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) d += std::fabs(a[i] - b[i]);
  return d;
}

Value MultiDtwDistance(std::span<const Value> a, std::size_t a_len,
                       std::span<const Value> b, std::size_t b_len,
                       std::size_t dim, Pos band) {
  TSW_CHECK(a_len > 0 && b_len > 0);
  TSW_CHECK(a.size() == a_len * dim && b.size() == b_len * dim);
  dtw::WarpingTable table(a_len, band, b_len);
  for (std::size_t y = 0; y < b_len; ++y) {
    const Value* elem = b.data() + y * dim;
    table.PushRowCustom([&](std::size_t x) {
      return MultiBaseDistance(
          std::span<const Value>(a.data() + x * dim, dim),
          std::span<const Value>(elem, dim));
    });
  }
  return table.LastColumn();
}

}  // namespace tswarp::mv
