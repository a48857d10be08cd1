// End-to-end correctness of the three similarity-search algorithms:
// SimSearch-ST, SimSearch-ST_C and SimSearch-SST_C must return exactly the
// answer set of sequential scanning — the paper's no-false-dismissal
// guarantee (and, since post-processing verifies exactly, no false alarms
// in the final answers either).


#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/index.h"
#include "core/seq_scan.h"
#include "datagen/generators.h"
#include "seqdb/sequence_database.h"
#include "test_util.h"

namespace tswarp::core {
namespace {

using categorize::Method;

seqdb::SequenceDatabase SmallRandomDb(std::uint64_t seed,
                                      std::size_t num_sequences = 12,
                                      std::size_t avg_length = 40) {
  datagen::RandomWalkOptions opt;
  opt.num_sequences = num_sequences;
  opt.avg_length = avg_length;
  opt.length_jitter = avg_length / 4;
  opt.seed = seed;
  return datagen::GenerateRandomWalks(opt);
}

std::vector<Value> RandomQuery(const seqdb::SequenceDatabase& db, Rng* rng,
                               std::size_t max_len = 8) {
  // Half the queries are perturbed extracts (guaranteeing non-empty
  // answers at moderate epsilon), half are fresh random walks.
  std::vector<Value> q;
  const auto len =
      static_cast<std::size_t>(rng->UniformInt(1,
                                               static_cast<int>(max_len)));
  if (rng->Coin(0.5)) {
    const auto id = static_cast<SeqId>(
        rng->UniformInt(0, static_cast<int>(db.size()) - 1));
    const seqdb::Sequence& s = db.sequence(id);
    const std::size_t use_len = std::min(len, s.size());
    const auto start = static_cast<std::size_t>(rng->UniformInt(
        0, static_cast<int>(s.size() - use_len)));
    q.assign(s.begin() + static_cast<std::ptrdiff_t>(start),
             s.begin() + static_cast<std::ptrdiff_t>(start + use_len));
    for (Value& v : q) v += rng->Gaussian(0, 0.3);
  } else {
    Value v = rng->Uniform(20, 80);
    for (std::size_t i = 0; i < len; ++i) {
      q.push_back(v);
      v += rng->Gaussian(0, 1);
    }
  }
  return q;
}

struct KindCase {
  IndexKind kind;
  Method method;
  std::size_t categories;
};

std::string CaseName(const testing::TestParamInfo<KindCase>& info) {
  std::string name = IndexKindToString(info.param.kind);
  for (char& c : name) {
    if (c == '_') c = 'x';
  }
  name += "_";
  name += categorize::MethodToString(info.param.method);
  name += "_";
  name += std::to_string(info.param.categories);
  return name;
}

class NoFalseDismissalTest : public testing::TestWithParam<KindCase> {};

TEST_P(NoFalseDismissalTest, MatchesSequentialScan) {
  const KindCase param = GetParam();
  Rng rng(1000 + static_cast<std::uint64_t>(param.categories));
  for (int round = 0; round < 6; ++round) {
    const seqdb::SequenceDatabase db =
        SmallRandomDb(77 + static_cast<std::uint64_t>(round) * 13);
    IndexOptions options;
    options.kind = param.kind;
    options.method = param.method;
    options.num_categories = param.categories;
    auto index = Index::Build(&db, options);
    ASSERT_TRUE(index.ok()) << index.status();
    for (int qi = 0; qi < 8; ++qi) {
      const std::vector<Value> q = RandomQuery(db, &rng);
      const Value eps = rng.Uniform(0.0, 12.0);
      const std::vector<Match> expected = SeqScan(db, q, eps);
      const std::vector<Match> actual = index->Search(q, eps);
      testutil::ExpectSameMatches(
          expected, actual,
          std::string(IndexKindToString(param.kind)) + " round " +
              std::to_string(round) + " query " + std::to_string(qi) +
              " eps " + std::to_string(eps));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, NoFalseDismissalTest,
    testing::Values(
        KindCase{IndexKind::kSuffixTree, Method::kMaxEntropy, 0},
        KindCase{IndexKind::kCategorized, Method::kEqualLength, 4},
        KindCase{IndexKind::kCategorized, Method::kEqualLength, 16},
        KindCase{IndexKind::kCategorized, Method::kMaxEntropy, 4},
        KindCase{IndexKind::kCategorized, Method::kMaxEntropy, 16},
        KindCase{IndexKind::kCategorized, Method::kKMeans, 8},
        KindCase{IndexKind::kSparse, Method::kEqualLength, 4},
        KindCase{IndexKind::kSparse, Method::kEqualLength, 16},
        KindCase{IndexKind::kSparse, Method::kMaxEntropy, 4},
        KindCase{IndexKind::kSparse, Method::kMaxEntropy, 16},
        KindCase{IndexKind::kSparse, Method::kKMeans, 8}),
    CaseName);

// Few categories force long runs, stressing the sparse D_tw-lb2 path.
TEST(SparseSearchTest, VeryCoarseCategoriesStillExact) {
  Rng rng(4242);
  for (int round = 0; round < 10; ++round) {
    const seqdb::SequenceDatabase db =
        SmallRandomDb(500 + static_cast<std::uint64_t>(round), 8, 30);
    IndexOptions options;
    options.kind = IndexKind::kSparse;
    options.num_categories = 2;  // Extreme compaction, long runs.
    auto index = Index::Build(&db, options);
    ASSERT_TRUE(index.ok()) << index.status();
    EXPECT_GT(index->build_info().compaction_ratio, 0.3)
        << "2 categories should drop many suffixes";
    for (int qi = 0; qi < 6; ++qi) {
      const std::vector<Value> q = RandomQuery(db, &rng);
      const Value eps = rng.Uniform(0.0, 15.0);
      testutil::ExpectSameMatches(SeqScan(db, q, eps),
                                  index->Search(q, eps),
                                  "coarse round " + std::to_string(round));
    }
  }
}

TEST(TreeSearchTest, PruningDisabledGivesSameAnswers) {
  Rng rng(99);
  const seqdb::SequenceDatabase db = SmallRandomDb(3);
  IndexOptions options;
  options.kind = IndexKind::kSparse;
  options.num_categories = 8;
  auto index = Index::Build(&db, options);
  ASSERT_TRUE(index.ok());
  for (int qi = 0; qi < 10; ++qi) {
    const std::vector<Value> q = RandomQuery(db, &rng);
    const Value eps = rng.Uniform(0.0, 10.0);
    QueryOptions no_prune;
    no_prune.prune = false;
    SearchStats with_stats, without_stats;
    const auto with = index->Search(q, eps, {}, &with_stats);
    const auto without = index->Search(q, eps, no_prune, &without_stats);
    testutil::ExpectSameMatches(with, without, "prune ablation");
    EXPECT_LE(with_stats.rows_pushed, without_stats.rows_pushed)
        << "pruning must not increase work";
  }
}

TEST(TreeSearchTest, EmptyAnswerSetAtTinyEpsilonOnForeignQuery) {
  const seqdb::SequenceDatabase db = SmallRandomDb(8);
  IndexOptions options;
  options.kind = IndexKind::kSparse;
  options.num_categories = 12;
  auto index = Index::Build(&db, options);
  ASSERT_TRUE(index.ok());
  // A query far outside the value range cannot match at epsilon 0.1.
  const std::vector<Value> q = {1e6, 1e6 + 1, 1e6 + 2};
  EXPECT_TRUE(index->Search(q, 0.1).empty());
}

TEST(TreeSearchTest, EpsilonZeroFindsExactOccurrences) {
  // Build a database with a repeated exact motif; epsilon 0 must find all
  // its occurrences (and any time-warped zero-distance repeats).
  seqdb::SequenceDatabase db;
  db.Add({5, 1, 9, 2, 7, 5, 1, 9});
  db.Add({3, 5, 1, 9, 4, 4});
  IndexOptions options;
  options.kind = IndexKind::kSuffixTree;
  auto index = Index::Build(&db, options);
  ASSERT_TRUE(index.ok());
  const std::vector<Value> q = {5, 1, 9};
  const std::vector<Match> matches = index->Search(q, 0.0);
  // Exact occurrences: S0[0:2], S0[5:7], S1[1:3]; plus warped variants
  // (e.g. duplicated elements) also at distance 0 — compare with scan.
  testutil::ExpectSameMatches(SeqScan(db, q, 0.0), matches, "eps=0");
  // The three literal occurrences must be present.
  int literal = 0;
  for (const Match& m : matches) {
    if (m.len == 3 && m.distance == 0.0) ++literal;
  }
  EXPECT_GE(literal, 3);
}

TEST(TreeSearchTest, BandedSearchMatchesBandedScan) {
  Rng rng(123);
  const seqdb::SequenceDatabase db = SmallRandomDb(21);
  // Banded search requires a dense index; the D_tw-lb2 recovery of sparse
  // trees is only valid for unconstrained warping.
  IndexOptions options;
  options.kind = IndexKind::kCategorized;
  options.num_categories = 10;
  auto index = Index::Build(&db, options);
  ASSERT_TRUE(index.ok());
  for (int qi = 0; qi < 8; ++qi) {
    const std::vector<Value> q = RandomQuery(db, &rng);
    const Value eps = rng.Uniform(0.0, 10.0);
    const Pos band = static_cast<Pos>(rng.UniformInt(1, 6));
    SeqScanOptions scan_options;
    scan_options.band = band;
    QueryOptions query_options;
    query_options.band = band;
    testutil::ExpectSameMatches(SeqScan(db, q, eps, scan_options),
                                index->Search(q, eps, query_options),
                                "band " + std::to_string(band));
  }
}

}  // namespace
}  // namespace tswarp::core
