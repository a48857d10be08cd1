// Unit tests of the query envelope (src/dtw/envelope.cc): construction
// against a brute-force O(n * band) reference, band edge cases, and the
// per-element bound's reach and sums on small hand-checkable inputs.

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "dtw/dtw.h"
#include "dtw/envelope.h"

namespace tswarp::dtw {
namespace {

/// O(n * band) reference: extrema of q[max(0,j-band) .. min(n-1,j+band)].
void BruteForceEnvelope(const std::vector<Value>& q, Pos band,
                        std::vector<Value>* lower,
                        std::vector<Value>* upper) {
  const std::size_t n = q.size();
  lower->clear();
  upper->clear();
  for (std::size_t j = 0; j < n + band; ++j) {
    const std::size_t lo = j > band ? j - band : 0;
    const std::size_t hi = std::min(j + band, n - 1);
    Value mn = q[lo], mx = q[lo];
    for (std::size_t i = lo; i <= hi; ++i) {
      mn = std::min(mn, q[i]);
      mx = std::max(mx, q[i]);
    }
    lower->push_back(mn);
    upper->push_back(mx);
  }
}

std::vector<Value> RandomWalk(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Value> v;
  Value x = rng.Uniform(-5, 5);
  for (std::size_t i = 0; i < n; ++i) {
    x += rng.Gaussian(0, 1);
    v.push_back(x);
  }
  return v;
}

TEST(EnvelopeTest, BandedMatchesBruteForce) {
  for (const std::size_t n : {1u, 2u, 3u, 7u, 16u, 33u}) {
    for (const Pos band : {1u, 2u, 5u, 16u, 64u}) {
      const std::vector<Value> q = RandomWalk(n, 100 * n + band);
      const QueryEnvelope env(q, band);
      std::vector<Value> lower, upper;
      BruteForceEnvelope(q, band, &lower, &upper);
      ASSERT_EQ(env.reach(), lower.size()) << "n=" << n << " band=" << band;
      for (std::size_t j = 0; j < lower.size(); ++j) {
        EXPECT_DOUBLE_EQ(env.LowerAt(j), lower[j])
            << "n=" << n << " band=" << band << " j=" << j;
        EXPECT_DOUBLE_EQ(env.UpperAt(j), upper[j])
            << "n=" << n << " band=" << band << " j=" << j;
      }
    }
  }
}

TEST(EnvelopeTest, UnconstrainedIsGlobalExtrema) {
  const std::vector<Value> q = {3.0, -1.5, 7.25, 0.0, 7.0};
  const QueryEnvelope env(q, 0);
  EXPECT_TRUE(env.unconstrained());
  EXPECT_EQ(env.reach(), QueryEnvelope::kNoReachLimit);
  // Any offset, however large, sees [min Q, max Q].
  for (const std::size_t j : {0ul, 1ul, 4ul, 1000ul}) {
    EXPECT_DOUBLE_EQ(env.LowerAt(j), -1.5);
    EXPECT_DOUBLE_EQ(env.UpperAt(j), 7.25);
    EXPECT_DOUBLE_EQ(env.ElementLb(j, 8.25), 1.0);
    EXPECT_DOUBLE_EQ(env.ElementLb(j, -3.5), 2.0);
    EXPECT_DOUBLE_EQ(env.ElementLb(j, 0.0), 0.0);
  }
}

TEST(EnvelopeTest, BandAtLeastQueryLengthEdgeCases) {
  const std::vector<Value> q = {2.0, 9.0, 4.0};
  for (const Pos band : {3u, 4u, 100u}) {  // band >= |Q|.
    const QueryEnvelope env(q, band);
    EXPECT_EQ(env.reach(), q.size() + band);
    for (std::size_t j = 0; j < env.reach(); ++j) {
      // Window [max(0, j-band), min(|Q|-1, j+band)]: the whole query while
      // j <= band; for larger j the left edge walks past element 0.
      const std::size_t lo = j > band ? j - band : 0;
      EXPECT_DOUBLE_EQ(env.LowerAt(j),
                       *std::min_element(q.begin() + lo, q.end()))
          << "band=" << band << " j=" << j;
      EXPECT_DOUBLE_EQ(env.UpperAt(j),
                       *std::max_element(q.begin() + lo, q.end()))
          << "band=" << band << " j=" << j;
      if (j <= band) {
        EXPECT_DOUBLE_EQ(env.LowerAt(j), 2.0);
        EXPECT_DOUBLE_EQ(env.UpperAt(j), 9.0);
      }
    }
    EXPECT_EQ(env.ElementLb(env.reach(), 5.0), kInfinity);
  }
}

TEST(EnvelopeTest, SingleElementQuery) {
  const std::vector<Value> q = {4.0};
  const QueryEnvelope unconstrained(q, 0);
  EXPECT_DOUBLE_EQ(unconstrained.ElementLb(17, 6.5), 2.5);
  const QueryEnvelope banded(q, 2);
  EXPECT_EQ(banded.reach(), 3u);  // Offsets 0..2 reach the one element.
  for (std::size_t j = 0; j < 3; ++j) {
    EXPECT_DOUBLE_EQ(banded.ElementLb(j, 1.0), 3.0);
  }
  EXPECT_EQ(banded.ElementLb(3, 4.0), kInfinity);
}

TEST(EnvelopeTest, ElementLbBeyondBandedReachIsInfinite) {
  const std::vector<Value> q = RandomWalk(8, 3);
  const QueryEnvelope env(q, 2);
  EXPECT_EQ(env.reach(), 10u);
  EXPECT_LT(env.ElementLb(9, q[7]), kInfinity);
  EXPECT_EQ(env.ElementLb(10, q[7]), kInfinity);
  EXPECT_EQ(env.ElementLb(10000, q[7]), kInfinity);
}

/// LB_Keogh as ScanStart accumulates it: the envelope's per-element terms
/// summed over the candidate, front to back.
Value KeoghSum(const QueryEnvelope& env, const std::vector<Value>& s) {
  Value sum = 0.0;
  for (std::size_t j = 0; j < s.size(); ++j) sum += env.ElementLb(j, s[j]);
  return sum;
}

Value ExactDistance(const std::vector<Value>& q, const std::vector<Value>& s,
                    Pos band) {
  return band == 0 ? DtwDistance(q, s) : DtwDistanceBanded(q, s, band);
}

TEST(EnvelopeTest, LbKeoghHandComputed) {
  // Q = <0, 10>, unconstrained: envelope [0, 10] at every offset.
  const std::vector<Value> q = {0.0, 10.0};
  const QueryEnvelope env(q, 0);
  const std::vector<Value> s = {-2.0, 5.0, 13.0};  // 2 + 0 + 3.
  EXPECT_DOUBLE_EQ(KeoghSum(env, s), 5.0);
  EXPECT_LE(KeoghSum(env, s), DtwDistance(q, s));

  // Q = <0, 10, 4>, band 1: envelopes [0, 10], [0, 10], [4, 10], [4, 4].
  const std::vector<Value> qb = {0.0, 10.0, 4.0};
  const QueryEnvelope banded(qb, 1);
  const std::vector<Value> sb = {-1.0, 11.0, 2.0, 7.0};  // 1 + 1 + 2 + 3.
  EXPECT_DOUBLE_EQ(KeoghSum(banded, sb), 7.0);
  EXPECT_LE(KeoghSum(banded, sb), DtwDistanceBanded(qb, sb, 1));
}

TEST(EnvelopeTest, LbKeoghEarlyAbandonStillLowerBounds) {
  // ScanStart stops adding terms once the running sum passes its
  // threshold. An abandoned sum never exceeds the full one (the terms are
  // non-negative), equals it whenever it stays under the cap, and every
  // partial sum lower-bounds the distance of the prefix it covers.
  const std::vector<Value> q = RandomWalk(12, 5);
  const std::vector<Value> s = RandomWalk(30, 6);
  for (const Pos band : {0u, 3u}) {
    const QueryEnvelope env(q, band);
    const Value full = KeoghSum(env, s);
    for (const Value cap : {0.0, full / 2, full}) {
      Value abandoned = 0.0;
      for (std::size_t j = 0; j < s.size() && abandoned <= cap; ++j) {
        abandoned += env.ElementLb(j, s[j]);
      }
      EXPECT_LE(abandoned, full) << "band=" << band << " cap=" << cap;
      if (abandoned <= cap) {
        EXPECT_DOUBLE_EQ(abandoned, full) << "band=" << band;
      }
    }
    for (std::size_t len = 1; len <= s.size(); ++len) {
      const std::vector<Value> prefix(s.begin(), s.begin() + len);
      EXPECT_LE(KeoghSum(env, prefix), ExactDistance(q, prefix, band) + 1e-9)
          << "band=" << band << " len=" << len;
    }
  }
}

}  // namespace
}  // namespace tswarp::dtw
