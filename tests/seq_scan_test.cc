#include "core/seq_scan.h"

#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "datagen/generators.h"
#include "dtw/dtw.h"
#include "dtw/envelope.h"
#include "dtw/warping_table.h"
#include "test_util.h"

namespace tswarp::core {
namespace {

/// Exhaustive oracle: DTW of every subsequence, no pruning, no sharing.
std::vector<Match> BruteForce(const seqdb::SequenceDatabase& db,
                              std::span<const Value> q, Value eps) {
  std::vector<Match> out;
  for (SeqId id = 0; id < db.size(); ++id) {
    const auto n = static_cast<Pos>(db.sequence(id).size());
    for (Pos p = 0; p < n; ++p) {
      for (Pos len = 1; len <= n - p; ++len) {
        const Value d = dtw::DtwDistance(q, db.Subsequence(id, p, len));
        if (d <= eps) out.push_back({id, p, len, d});
      }
    }
  }
  return out;
}

TEST(SeqScanTest, MatchesBruteForceOracle) {
  Rng rng(2024);
  for (int round = 0; round < 5; ++round) {
    seqdb::SequenceDatabase db;
    const int num_seqs = static_cast<int>(rng.UniformInt(1, 4));
    for (int i = 0; i < num_seqs; ++i) {
      seqdb::Sequence s;
      const int len = static_cast<int>(rng.UniformInt(1, 18));
      for (int p = 0; p < len; ++p) s.push_back(rng.Uniform(0, 10));
      db.Add(std::move(s));
    }
    for (int qi = 0; qi < 5; ++qi) {
      std::vector<Value> q;
      const int lq = static_cast<int>(rng.UniformInt(1, 6));
      for (int i = 0; i < lq; ++i) q.push_back(rng.Uniform(0, 10));
      const Value eps = rng.Uniform(0, 8);
      testutil::ExpectSameMatches(BruteForce(db, q, eps), SeqScan(db, q, eps),
                                  "round " + std::to_string(round));
    }
  }
}

TEST(SeqScanTest, PruningDoesNotChangeAnswers) {
  datagen::RandomWalkOptions options;
  options.num_sequences = 6;
  options.avg_length = 30;
  options.seed = 5;
  const seqdb::SequenceDatabase db = datagen::GenerateRandomWalks(options);
  Rng rng(6);
  for (int qi = 0; qi < 8; ++qi) {
    std::vector<Value> q;
    Value v = rng.Uniform(20, 80);
    for (int i = 0; i < 5; ++i) {
      q.push_back(v);
      v += rng.Gaussian(0, 1);
    }
    const Value eps = rng.Uniform(0, 10);
    SeqScanOptions no_prune;
    no_prune.prune = false;
    SearchStats pruned_stats, full_stats;
    const auto pruned = SeqScan(db, q, eps, {}, &pruned_stats);
    const auto full = SeqScan(db, q, eps, no_prune, &full_stats);
    testutil::ExpectSameMatches(full, pruned, "prune ablation");
    EXPECT_LE(pruned_stats.rows_pushed, full_stats.rows_pushed);
  }
}

TEST(SeqScanTest, PruningCutsWorkAtSmallEpsilon) {
  datagen::RandomWalkOptions options;
  options.num_sequences = 4;
  options.avg_length = 60;
  options.seed = 9;
  const seqdb::SequenceDatabase db = datagen::GenerateRandomWalks(options);
  const std::vector<Value> q = {1000.0, 1001.0};  // Far from all data.
  // Isolate Theorem 1 from the (even earlier) envelope cascade.
  SeqScanOptions prune_only;
  prune_only.use_lower_bound = false;
  SeqScanOptions no_prune = prune_only;
  no_prune.prune = false;
  SearchStats pruned_stats, full_stats;
  SeqScan(db, q, 0.5, prune_only, &pruned_stats);
  SeqScan(db, q, 0.5, no_prune, &full_stats);
  // Theorem 1 fires on the first row of every suffix.
  EXPECT_EQ(pruned_stats.rows_pushed, db.TotalElements());
  EXPECT_GT(full_stats.rows_pushed, 4 * pruned_stats.rows_pushed);
  // The envelope cascade cuts the same suffixes before any row is built.
  SearchStats lb_stats;
  SeqScan(db, q, 0.5, {}, &lb_stats);
  EXPECT_EQ(lb_stats.rows_pushed, 0u);
  EXPECT_EQ(lb_stats.lb_pruned, db.TotalElements());
}

TEST(SeqScanTest, ReportsDistances) {
  seqdb::SequenceDatabase db;
  db.Add({1, 2, 3});
  const std::vector<Value> q = {1, 2};
  const auto matches = SeqScan(db, q, 1.0);
  for (const Match& m : matches) {
    EXPECT_NEAR(m.distance,
                dtw::DtwDistance(q, db.Subsequence(m.seq, m.start, m.len)),
                1e-12);
    EXPECT_LE(m.distance, 1.0);
  }
  // S[0:1] = <1,2> matches exactly.
  bool exact = false;
  for (const Match& m : matches) {
    if (m.start == 0 && m.len == 2 && m.distance == 0.0) exact = true;
  }
  EXPECT_TRUE(exact);
}

TEST(SeqScanTest, BandedScanRespectsBand) {
  datagen::RandomWalkOptions options;
  options.num_sequences = 3;
  options.avg_length = 25;
  options.seed = 11;
  const seqdb::SequenceDatabase db = datagen::GenerateRandomWalks(options);
  Rng rng(12);
  std::vector<Value> q;
  Value v = rng.Uniform(20, 80);
  for (int i = 0; i < 6; ++i) {
    q.push_back(v);
    v += rng.Gaussian(0, 1);
  }
  SeqScanOptions banded;
  banded.band = 2;
  const auto matches = SeqScan(db, q, 20.0, banded);
  for (const Match& m : matches) {
    // |len - |Q|| <= band is implied by the band constraint.
    EXPECT_LE(std::abs(static_cast<int>(m.len) - static_cast<int>(q.size())),
              2);
    EXPECT_NEAR(m.distance,
                dtw::DtwDistanceBanded(
                    q, db.Subsequence(m.seq, m.start, m.len), 2),
                1e-12);
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

/// Runs ScanStart over all of `s` (one start) and returns what it
/// reported, as (len, distance) pairs in length order.
std::vector<std::pair<Pos, Value>> ScanOneStart(std::span<const Value> q,
                                                std::span<const Value> s,
                                                Pos band, bool use_lb,
                                                Value eps,
                                                SearchStats* stats) {
  const dtw::QueryEnvelope env(q, band);
  dtw::ScanTable table(q, band);
  std::vector<std::pair<Pos, Value>> out;
  ScanStart(ValueSuffix(q, s, use_lb ? &env : nullptr), &table,
            /*prune=*/true, [eps] { return eps; },
            [&](Pos len, Value d) { out.emplace_back(len, d); }, stats);
  return out;
}

/// Every length of one start, by the plain (banded) kernel.
std::vector<std::pair<Pos, Value>> PlainLengths(std::span<const Value> q,
                                                std::span<const Value> s,
                                                Pos band, Value eps) {
  std::vector<std::pair<Pos, Value>> out;
  for (std::size_t len = 1; len <= s.size(); ++len) {
    const std::span<const Value> prefix = s.first(len);
    const Value d = band == 0 ? dtw::DtwDistance(q, prefix)
                              : dtw::DtwDistanceBanded(q, prefix, band);
    if (d <= eps) out.emplace_back(static_cast<Pos>(len), d);
  }
  return out;
}

TEST(SeqScanTest, ScanStartAgreesWithPlainKernel) {
  const std::vector<Value> q = RandomWalk(9, 11);
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    const std::vector<Value> s = RandomWalk(1 + seed % 20, 200 + seed);
    const Value exact = dtw::DtwDistance(q, s);
    for (const Value eps : {exact * 0.5, exact, exact * 2.0}) {
      for (const bool use_lb : {false, true}) {
        SearchStats stats;
        // Same recurrence as the plain kernel: lengths and distances
        // agree bit for bit, with or without the running bound.
        EXPECT_EQ(ScanOneStart(q, s, 0, use_lb, eps, &stats),
                  PlainLengths(q, s, 0, eps))
            << "seed=" << seed << " eps=" << eps << " lb=" << use_lb;
        EXPECT_EQ(stats.candidates, 1u);
        EXPECT_EQ(stats.lb_invocations, use_lb ? 1u : 0u);
        EXPECT_EQ(stats.exact_dtw_calls + stats.endpoint_rejections, 1u);
      }
    }
  }
}

TEST(SeqScanTest, ScanStartBandedMatchesBandedDistance) {
  const std::vector<Value> q = RandomWalk(10, 13);
  for (const Pos band : {1u, 3u, 10u}) {
    for (std::uint64_t seed = 0; seed < 30; ++seed) {
      const std::vector<Value> s = RandomWalk(1 + seed % 16, 300 + seed);
      for (const Value eps : {1.0, 10.0, 100.0}) {
        for (const bool use_lb : {false, true}) {
          SearchStats stats;
          EXPECT_EQ(ScanOneStart(q, s, band, use_lb, eps, &stats),
                    PlainLengths(q, s, band, eps))
              << "band=" << band << " seed=" << seed << " eps=" << eps
              << " lb=" << use_lb;
        }
      }
    }
  }
}

TEST(SeqScanTest, ScanStartEndpointCutBuildsNoRow) {
  // The first element is 5 away from Q[1]: every warping path pays that
  // in its start cell, so the running bound ends the start before any
  // row; without the bound, Theorem 1 ends it after the first row.
  const std::vector<Value> q = {0.0, 10.0, 0.0};
  const std::vector<Value> s = {5.0, 10.0, 0.0};
  SearchStats with_lb;
  EXPECT_TRUE(ScanOneStart(q, s, 0, true, 4.0, &with_lb).empty());
  EXPECT_EQ(with_lb.endpoint_rejections, 1u);
  EXPECT_EQ(with_lb.lb_pruned, 1u);
  EXPECT_EQ(with_lb.exact_dtw_calls, 0u);
  SearchStats plain;
  EXPECT_TRUE(ScanOneStart(q, s, 0, false, 4.0, &plain).empty());
  EXPECT_EQ(plain.endpoint_rejections, 0u);
  EXPECT_EQ(plain.exact_dtw_calls, 1u);
}

// The endpoint bound ScanStart cuts with: a start's first element meets
// Q[1] in the warping path's fixed start cell (1, 1), so ValueSuffix's first
// term is that cell's exact cost and never exceeds the distance.
TEST(EndpointLowerBoundTest, IsAlwaysBelowExactDtw) {
  Rng rng(61);
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<Value> a, b;
    const int la = static_cast<int>(rng.UniformInt(1, 10));
    const int lb = static_cast<int>(rng.UniformInt(1, 10));
    for (int i = 0; i < la; ++i) a.push_back(rng.Uniform(0, 10));
    for (int i = 0; i < lb; ++i) b.push_back(rng.Uniform(0, 10));
    const ValueSuffix suffix(a, b, /*env=*/nullptr);
    EXPECT_LE(suffix.ElementLb(0), dtw::DtwDistance(a, b))
        << "la=" << la << " lb=" << lb;
  }
}

TEST(EndpointLowerBoundTest, KnownValues) {
  const std::vector<Value> a = {1, 5, 9};
  const std::vector<Value> b = {2, 7, 7, 11};
  EXPECT_DOUBLE_EQ(ValueSuffix(a, b, nullptr).ElementLb(0), 1.0);
  const std::vector<Value> single = {4};
  EXPECT_DOUBLE_EQ(ValueSuffix(single, single, nullptr).ElementLb(0), 0.0);
  const std::vector<Value> one = {0};
  const std::vector<Value> two = {3, 8};
  EXPECT_DOUBLE_EQ(ValueSuffix(one, two, nullptr).ElementLb(0), 3.0);
  EXPECT_DOUBLE_EQ(dtw::DtwDistance(one, two), 11.0);

  // Against an envelope: Q = <0, 10> gives [0, 10] at every offset, so the
  // envelope term of S[1] = 5 would be 0, but the first term is the exact
  // endpoint cost |0 - 5|; later terms are the envelope's.
  const std::vector<Value> q = {0, 10};
  const dtw::QueryEnvelope env(q, 0);
  const std::vector<Value> s = {5, 5, 12};
  const ValueSuffix suffix(q, s, &env);
  EXPECT_DOUBLE_EQ(env.ElementLb(0, s[0]), 0.0);
  EXPECT_DOUBLE_EQ(suffix.ElementLb(0), 5.0);
  EXPECT_DOUBLE_EQ(suffix.ElementLb(1), 0.0);
  EXPECT_DOUBLE_EQ(suffix.ElementLb(2), 2.0);
  EXPECT_LE(suffix.ElementLb(0) + suffix.ElementLb(1) + suffix.ElementLb(2),
            dtw::DtwDistance(q, s));
}

}  // namespace
}  // namespace tswarp::core
