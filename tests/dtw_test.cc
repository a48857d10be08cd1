#include "dtw/dtw.h"

#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "dtw/base.h"

namespace tswarp::dtw {
namespace {

std::vector<Value> Seq(std::initializer_list<Value> values) {
  return std::vector<Value>(values);
}

// Paper Figure 1: S3 = <3,4,3>, S4 = <4,5,6,7,6,6> has D_tw = 12.
TEST(DtwDistanceTest, PaperFigure1) {
  const auto s3 = Seq({3, 4, 3});
  const auto s4 = Seq({4, 5, 6, 7, 6, 6});
  EXPECT_DOUBLE_EQ(DtwDistance(s3, s4), 12.0);
  // Symmetry of the unconstrained warping distance.
  EXPECT_DOUBLE_EQ(DtwDistance(s4, s3), 12.0);
}

// Paper Section 1: S1 = <20,20,21,21,20,20,23,23>, S2 = <20,21,20,23> are
// identical under time warping (every S2 element duplicated).
TEST(DtwDistanceTest, PaperIntroductionExample) {
  const auto s1 = Seq({20, 20, 21, 21, 20, 20, 23, 23});
  const auto s2 = Seq({20, 21, 20, 23});
  EXPECT_DOUBLE_EQ(DtwDistance(s1, s2), 0.0);
}

TEST(DtwDistanceTest, SingleElements) {
  const auto a = Seq({3.5});
  const auto b = Seq({1.0});
  EXPECT_DOUBLE_EQ(DtwDistance(a, b), 2.5);
  EXPECT_DOUBLE_EQ(DtwDistance(a, a), 0.0);
}

TEST(DtwDistanceTest, IdenticalSequencesHaveZeroDistance) {
  const auto a = Seq({1, 2, 3, 4, 5, 4, 3, 2, 1});
  EXPECT_DOUBLE_EQ(DtwDistance(a, a), 0.0);
}

TEST(DtwDistanceTest, StretchingIsFree) {
  // Duplicating elements must not change the distance to the original.
  const auto a = Seq({1, 5, 2});
  const auto stretched = Seq({1, 1, 1, 5, 5, 2, 2, 2, 2});
  EXPECT_DOUBLE_EQ(DtwDistance(a, stretched), 0.0);
}

TEST(DtwDistanceTest, OneAgainstConstant) {
  // Query <0> vs <c,c,c>: every element maps onto the single query element.
  const auto q = Seq({0});
  const auto c = Seq({2, 2, 2});
  EXPECT_DOUBLE_EQ(DtwDistance(q, c), 6.0);
}

TEST(DtwWithinThresholdTest, AcceptsAndRejects) {
  const auto s3 = Seq({3, 4, 3});
  const auto s4 = Seq({4, 5, 6, 7, 6, 6});
  Value d = -1.0;
  EXPECT_TRUE(DtwWithinThreshold(s3, s4, 12.0, &d));
  EXPECT_DOUBLE_EQ(d, 12.0);
  EXPECT_FALSE(DtwWithinThreshold(s3, s4, 11.99, &d));
}

TEST(DtwWithinThresholdTest, MatchesFullComputationOnRandomPairs) {
  Rng rng(123);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<Value> a, b;
    const int la = static_cast<int>(rng.UniformInt(1, 12));
    const int lb = static_cast<int>(rng.UniformInt(1, 12));
    for (int i = 0; i < la; ++i) a.push_back(rng.Uniform(0, 10));
    for (int i = 0; i < lb; ++i) b.push_back(rng.Uniform(0, 10));
    const Value exact = DtwDistance(a, b);
    const Value eps = rng.Uniform(0, 30);
    Value d = -1.0;
    const bool within = DtwWithinThreshold(a, b, eps, &d);
    EXPECT_EQ(within, exact <= eps) << "exact=" << exact << " eps=" << eps;
    if (within) {
      EXPECT_DOUBLE_EQ(d, exact);
    }
  }
}

TEST(DtwBandedTest, WideBandEqualsUnconstrained) {
  const auto s3 = Seq({3, 4, 3});
  const auto s4 = Seq({4, 5, 6, 7, 6, 6});
  EXPECT_DOUBLE_EQ(DtwDistanceBanded(s3, s4, 100), DtwDistance(s3, s4));
}

TEST(DtwBandedTest, BandZeroIsDiagonalAlignment) {
  const auto a = Seq({1, 2, 3});
  const auto b = Seq({2, 2, 5});
  EXPECT_DOUBLE_EQ(DtwDistanceBanded(a, b, 0), 1.0 + 0.0 + 2.0);
  const auto c = Seq({1, 2});
  EXPECT_EQ(DtwDistanceBanded(a, c, 0), kInfinity);
}

TEST(DtwBandedTest, BandIsMonotoneInWidth) {
  Rng rng(77);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<Value> a, b;
    const int la = static_cast<int>(rng.UniformInt(2, 10));
    const int lb = static_cast<int>(rng.UniformInt(2, 10));
    for (int i = 0; i < la; ++i) a.push_back(rng.Uniform(0, 5));
    for (int i = 0; i < lb; ++i) b.push_back(rng.Uniform(0, 5));
    Value prev = kInfinity;
    for (Pos band = 1; band <= 12; ++band) {
      const Value d = DtwDistanceBanded(a, b, band);
      EXPECT_LE(d, prev) << "banded DTW must not grow with wider bands";
      prev = d;
    }
    // A band of max(|a|,|b|) is unconstrained.
    EXPECT_DOUBLE_EQ(DtwDistanceBanded(a, b, 12), DtwDistance(a, b));
  }
}

TEST(BaseDistanceLbTest, InsideAndOutsideInterval) {
  EXPECT_DOUBLE_EQ(BaseDistanceLb(5.0, 4.0, 6.0), 0.0);
  EXPECT_DOUBLE_EQ(BaseDistanceLb(4.0, 4.0, 6.0), 0.0);
  EXPECT_DOUBLE_EQ(BaseDistanceLb(6.0, 4.0, 6.0), 0.0);
  EXPECT_DOUBLE_EQ(BaseDistanceLb(7.5, 4.0, 6.0), 1.5);
  EXPECT_DOUBLE_EQ(BaseDistanceLb(1.0, 4.0, 6.0), 3.0);
}

TEST(BaseDistanceLbTest, LowerBoundsExactBaseDistance) {
  Rng rng(5);
  for (int trial = 0; trial < 1000; ++trial) {
    const Value lo = rng.Uniform(0, 10);
    const Value hi = lo + rng.Uniform(0, 5);
    const Value b = rng.Uniform(lo, hi);  // A value inside the category.
    const Value a = rng.Uniform(-5, 15);
    EXPECT_LE(BaseDistanceLb(a, lo, hi), BaseDistance(a, b) + 1e-12);
  }
}

TEST(DtwLowerBoundTest, LowerBoundsExactDistance) {
  Rng rng(9);
  for (int trial = 0; trial < 300; ++trial) {
    const int lq = static_cast<int>(rng.UniformInt(1, 8));
    const int ls = static_cast<int>(rng.UniformInt(1, 8));
    std::vector<Value> q, s;
    std::vector<Interval> cs;
    for (int i = 0; i < lq; ++i) q.push_back(rng.Uniform(0, 10));
    for (int i = 0; i < ls; ++i) {
      const Value v = rng.Uniform(0, 10);
      s.push_back(v);
      // A category interval containing v.
      const Value pad_lo = rng.Uniform(0, 2);
      const Value pad_hi = rng.Uniform(0, 2);
      cs.push_back({v - pad_lo, v + pad_hi});
    }
    EXPECT_LE(DtwLowerBound(q, cs), DtwDistance(q, s) + 1e-9)
        << "Theorem 2: D_tw-lb <= D_tw";
  }
}

TEST(LowerBound2Test, ClampsAtZero) {
  EXPECT_DOUBLE_EQ(LowerBound2(5.0, 2, 1.0), 3.0);
  EXPECT_DOUBLE_EQ(LowerBound2(5.0, 10, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(LowerBound2(5.0, 3, 0.0), 5.0);
}

// Theorem 3 (empirical): for sequences starting with a run of N equal
// categorized symbols, D_tw-lb2 lower-bounds D_tw-lb of the shortened
// suffix, which lower-bounds D_tw of the raw suffix.
TEST(LowerBound2Test, Theorem3HoldsOnRandomRuns) {
  Rng rng(31);
  for (int trial = 0; trial < 300; ++trial) {
    const int run = static_cast<int>(rng.UniformInt(2, 5));
    const int tail = static_cast<int>(rng.UniformInt(1, 6));
    // Category intervals: the first `run` elements share one interval.
    const Value lo0 = rng.Uniform(0, 8);
    const Value hi0 = lo0 + rng.Uniform(0.1, 2.0);
    std::vector<Value> s;
    std::vector<Interval> cs;
    for (int i = 0; i < run; ++i) {
      s.push_back(rng.Uniform(lo0, hi0));
      cs.push_back({lo0, hi0});
    }
    for (int i = 0; i < tail; ++i) {
      const Value v = rng.Uniform(0, 10);
      s.push_back(v);
      cs.push_back({v - rng.Uniform(0, 1), v + rng.Uniform(0, 1)});
    }
    const int lq = static_cast<int>(rng.UniformInt(1, 6));
    std::vector<Value> q;
    for (int i = 0; i < lq; ++i) q.push_back(rng.Uniform(0, 10));

    const Value lb_full = DtwLowerBound(q, cs);
    const Value first_lb = BaseDistanceLb(q.front(), lo0, hi0);
    for (int p = 1; p < run; ++p) {
      const std::span<const Value> s_sfx(s.data() + p, s.size() - p);
      const std::span<const Interval> cs_sfx(cs.data() + p, cs.size() - p);
      const Value lb2 = LowerBound2(lb_full, static_cast<Pos>(p), first_lb);
      EXPECT_LE(lb2, DtwLowerBound(q, cs_sfx) + 1e-9)
          << "D_tw-lb2 <= D_tw-lb on the suffix";
      EXPECT_LE(lb2, DtwDistance(q, s_sfx) + 1e-9)
          << "D_tw-lb2 <= D_tw on the suffix";
    }
  }
}

}  // namespace
}  // namespace tswarp::dtw
