// k-nearest-subsequence search (branch-and-bound extension on top of the
// paper's filter): results must match the k smallest exact DTW distances
// over all subsequences.

#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/index.h"
#include "core/result_collector.h"
#include "core/seq_scan.h"
#include "datagen/generators.h"
#include "dtw/dtw.h"

namespace tswarp::core {
namespace {

std::vector<Value> AllDistances(const seqdb::SequenceDatabase& db,
                                std::span<const Value> q) {
  std::vector<Value> out;
  for (SeqId id = 0; id < db.size(); ++id) {
    const auto n = static_cast<Pos>(db.sequence(id).size());
    for (Pos p = 0; p < n; ++p) {
      for (Pos len = 1; len <= n - p; ++len) {
        out.push_back(dtw::DtwDistance(q, db.Subsequence(id, p, len)));
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

seqdb::SequenceDatabase SmallDb(std::uint64_t seed) {
  datagen::RandomWalkOptions options;
  options.num_sequences = 6;
  options.avg_length = 25;
  options.length_jitter = 5;
  options.seed = seed;
  return datagen::GenerateRandomWalks(options);
}

class KnnKindTest : public testing::TestWithParam<IndexKind> {};

TEST_P(KnnKindTest, MatchesBruteForceTopK) {
  Rng rng(31337);
  for (int round = 0; round < 3; ++round) {
    const seqdb::SequenceDatabase db =
        SmallDb(600 + static_cast<std::uint64_t>(round));
    IndexOptions options;
    options.kind = GetParam();
    options.num_categories = 8;
    auto index = Index::Build(&db, options);
    ASSERT_TRUE(index.ok());
    for (const std::size_t k : {1u, 5u, 20u}) {
      std::vector<Value> q;
      Value v = rng.Uniform(20, 80);
      const auto len = static_cast<std::size_t>(rng.UniformInt(2, 5));
      for (std::size_t i = 0; i < len; ++i) {
        q.push_back(v);
        v += rng.Gaussian(0, 1);
      }
      const std::vector<Match> knn = index->SearchKnn(q, k);
      ASSERT_EQ(knn.size(), k);
      // Sorted by distance.
      for (std::size_t i = 1; i < knn.size(); ++i) {
        EXPECT_LE(knn[i - 1].distance, knn[i].distance);
      }
      // Distances equal the k smallest over all subsequences (ties may
      // swap which subsequence is reported, so compare distances).
      const std::vector<Value> all = AllDistances(db, q);
      for (std::size_t i = 0; i < k; ++i) {
        EXPECT_NEAR(knn[i].distance, all[i], 1e-9)
            << "k=" << k << " i=" << i;
      }
      // Each reported distance is the true distance of its subsequence.
      for (const Match& m : knn) {
        EXPECT_NEAR(m.distance,
                    dtw::DtwDistance(q, db.Subsequence(m.seq, m.start,
                                                       m.len)),
                    1e-9);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllKinds, KnnKindTest,
                         testing::Values(IndexKind::kSuffixTree,
                                         IndexKind::kCategorized,
                                         IndexKind::kSparse),
                         [](const testing::TestParamInfo<IndexKind>& info) {
                           std::string s = IndexKindToString(info.param);
                           std::erase(s, '_');
                           return s;
                         });

TEST(KnnTest, KZeroReturnsEmpty) {
  const seqdb::SequenceDatabase db = SmallDb(1);
  IndexOptions options;
  options.kind = IndexKind::kSparse;
  options.num_categories = 8;
  auto index = Index::Build(&db, options);
  ASSERT_TRUE(index.ok());
  const std::vector<Value> q = {30.0, 31.0};
  EXPECT_TRUE(index->SearchKnn(q, 0).empty());
}

TEST(KnnTest, KLargerThanSubsequenceCountReturnsAll) {
  seqdb::SequenceDatabase db;
  db.Add({1, 2, 3});  // 6 subsequences.
  IndexOptions options;
  options.kind = IndexKind::kSuffixTree;
  auto index = Index::Build(&db, options);
  ASSERT_TRUE(index.ok());
  const std::vector<Value> q = {2.0};
  const auto knn = index->SearchKnn(q, 100);
  EXPECT_EQ(knn.size(), 6u);
}

TEST(KnnTest, NearestIsThePlantedCopy) {
  Rng rng(9);
  seqdb::SequenceDatabase db = SmallDb(77);
  // Plant an exact copy of the query inside sequence 2.
  const std::vector<Value> q = {55, 54, 53.5, 54.5, 56};
  {
    seqdb::Sequence s = db.sequence(2);
    std::copy(q.begin(), q.end(), s.begin() + 10);
    db = SmallDb(77);  // Rebuild (SequenceDatabase is append-only).
    seqdb::SequenceDatabase db2;
    for (SeqId id = 0; id < db.size(); ++id) {
      if (id == 2) {
        db2.Add(std::move(s));
      } else {
        db2.Add(seqdb::Sequence(db.sequence(id)));
      }
    }
    db = std::move(db2);
  }
  IndexOptions options;
  options.kind = IndexKind::kSparse;
  options.num_categories = 10;
  auto index = Index::Build(&db, options);
  ASSERT_TRUE(index.ok());
  const auto knn = index->SearchKnn(q, 1);
  ASSERT_EQ(knn.size(), 1u);
  EXPECT_EQ(knn[0].seq, 2u);
  EXPECT_NEAR(knn[0].distance, 0.0, 1e-12);
}

TEST(KnnTest, PrunesRelativeToUnprunedRun) {
  const seqdb::SequenceDatabase db = SmallDb(5);
  IndexOptions options;
  options.kind = IndexKind::kSparse;
  options.num_categories = 12;
  auto index = Index::Build(&db, options);
  ASSERT_TRUE(index.ok());
  const std::vector<Value> q(db.sequence(0).begin(),
                             db.sequence(0).begin() + 4);
  SearchStats pruned, full;
  QueryOptions no_prune;
  no_prune.prune = false;
  const auto a = index->SearchKnn(q, 3, {}, &pruned);
  const auto b = index->SearchKnn(q, 3, no_prune, &full);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(a[i].distance, b[i].distance, 1e-9);
  }
  EXPECT_LE(pruned.rows_pushed, full.rows_pushed);
}

/// The k-NN oracle: every subsequence within +inf, i.e. all of them, in
/// the k-NN total order, cut to the first k.
std::vector<Match> KnnOracle(const seqdb::SequenceDatabase& db,
                             std::span<const Value> q, std::size_t k) {
  std::vector<Match> all = SeqScan(db, q, kInfinity);
  std::sort(all.begin(), all.end(), KnnMatchLess);
  all.resize(std::min(k, all.size()));
  return all;
}

/// Byte-identical to the oracle under every index kind, serial and
/// parallel.
void ExpectKnnMatchesOracle(const seqdb::SequenceDatabase& db,
                            std::span<const Value> q, std::size_t k) {
  const std::vector<Match> expected = KnnOracle(db, q, k);
  for (const IndexKind kind : {IndexKind::kSuffixTree,
                               IndexKind::kCategorized, IndexKind::kSparse}) {
    IndexOptions options;
    options.kind = kind;
    options.num_categories = 4;
    auto index = Index::Build(&db, options);
    ASSERT_TRUE(index.ok());
    for (const std::size_t threads : {0u, 2u}) {
      QueryOptions query_options;
      query_options.num_threads = threads;
      const std::vector<Match> knn = index->SearchKnn(q, k, query_options);
      SCOPED_TRACE(std::string(IndexKindToString(kind)) + " k=" +
                   std::to_string(k) + " threads=" +
                   std::to_string(threads));
      ASSERT_EQ(knn.size(), expected.size());
      for (std::size_t i = 0; i < knn.size(); ++i) {
        EXPECT_EQ(knn[i].seq, expected[i].seq) << i;
        EXPECT_EQ(knn[i].start, expected[i].start) << i;
        EXPECT_EQ(knn[i].len, expected[i].len) << i;
        EXPECT_EQ(knn[i].distance, expected[i].distance) << i;
      }
    }
  }
}

TEST(KnnTest, KBeyondTheStoredSuffixesSkipsTheSeed) {
  // 8 elements store at most 8 suffixes, so no root child holds k = 30
  // of them and the seed's dive stops at the root; the DFS alone must
  // still find the 30 best of the 36 subsequences.
  seqdb::SequenceDatabase db;
  db.Add({5, 7, 6, 9, 8, 8, 4, 6});
  const std::vector<Value> q = {6.0, 8.0, 8.5};
  ExpectKnnMatchesOracle(db, q, 30);
  ExpectKnnMatchesOracle(db, q, 36);
}

TEST(KnnTest, KOneMatchesTheOracle) {
  const seqdb::SequenceDatabase db = SmallDb(41);
  const std::vector<Value> planted(db.sequence(1).begin() + 3,
                                   db.sequence(1).begin() + 9);
  ExpectKnnMatchesOracle(db, planted, 1);
  const std::vector<Value> off = {planted[0] + 0.7, planted[2] - 0.4,
                                  planted[5] + 1.1};
  ExpectKnnMatchesOracle(db, off, 1);
}

TEST(KnnTest, OneSequenceDatabaseMatchesTheOracle) {
  seqdb::SequenceDatabase db;
  db.Add(seqdb::Sequence(SmallDb(43).sequence(0)));
  const std::vector<Value> q(db.sequence(0).begin() + 2,
                             db.sequence(0).begin() + 6);
  for (const std::size_t k : {1u, 3u, 10u}) ExpectKnnMatchesOracle(db, q, k);
}

}  // namespace
}  // namespace tswarp::core
