#include "core/index.h"

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/seq_scan.h"
#include "datagen/generators.h"
#include "test_util.h"

namespace tswarp::core {
namespace {

seqdb::SequenceDatabase TestDb(std::uint64_t seed = 1) {
  datagen::RandomWalkOptions options;
  options.num_sequences = 15;
  options.avg_length = 50;
  options.length_jitter = 10;
  options.seed = seed;
  return datagen::GenerateRandomWalks(options);
}

TEST(IndexBuildTest, RejectsNullAndEmpty) {
  EXPECT_FALSE(Index::Build(nullptr, {}).ok());
  seqdb::SequenceDatabase empty;
  EXPECT_FALSE(Index::Build(&empty, {}).ok());
}

TEST(IndexBuildTest, BuildInfoAccounting) {
  const seqdb::SequenceDatabase db = TestDb();
  IndexOptions options;
  options.kind = IndexKind::kSparse;
  options.num_categories = 8;
  auto index = Index::Build(&db, options);
  ASSERT_TRUE(index.ok());
  const IndexBuildInfo& info = index->build_info();
  EXPECT_EQ(info.stored_suffixes + info.skipped_suffixes,
            db.TotalElements());
  EXPECT_EQ(info.num_occurrences, info.stored_suffixes);
  EXPECT_GT(info.compaction_ratio, 0.0);
  EXPECT_LT(info.compaction_ratio, 1.0);
  EXPECT_GT(info.num_nodes, 1u);
  EXPECT_GT(info.index_bytes, 0u);
  EXPECT_LE(info.num_categories, 8u);
}

TEST(IndexBuildTest, DenseIndexStoresEverySuffix) {
  const seqdb::SequenceDatabase db = TestDb();
  for (IndexKind kind : {IndexKind::kSuffixTree, IndexKind::kCategorized}) {
    IndexOptions options;
    options.kind = kind;
    options.num_categories = 16;
    auto index = Index::Build(&db, options);
    ASSERT_TRUE(index.ok());
    EXPECT_EQ(index->build_info().stored_suffixes, db.TotalElements());
    EXPECT_DOUBLE_EQ(index->build_info().compaction_ratio, 0.0);
  }
}

TEST(IndexBuildTest, IndexSizeOrderingMatchesPaperTable1) {
  // ST >> ST_C > SST_C for a fixed category count (Table 1's shape).
  const seqdb::SequenceDatabase db = TestDb(3);
  IndexOptions st;
  st.kind = IndexKind::kSuffixTree;
  IndexOptions stc;
  stc.kind = IndexKind::kCategorized;
  stc.num_categories = 10;
  IndexOptions sstc;
  sstc.kind = IndexKind::kSparse;
  sstc.num_categories = 10;
  const auto i1 = Index::Build(&db, st);
  const auto i2 = Index::Build(&db, stc);
  const auto i3 = Index::Build(&db, sstc);
  ASSERT_TRUE(i1.ok() && i2.ok() && i3.ok());
  EXPECT_GT(i1->build_info().table1_bytes, i2->build_info().table1_bytes);
  EXPECT_GT(i2->build_info().table1_bytes, i3->build_info().table1_bytes);
}

TEST(IndexBuildTest, MoreCategoriesGrowCategorizedIndex) {
  const seqdb::SequenceDatabase db = TestDb(4);
  std::uint64_t prev = 0;
  for (std::size_t c : {4u, 16u, 64u}) {
    IndexOptions options;
    options.kind = IndexKind::kCategorized;
    options.num_categories = c;
    auto index = Index::Build(&db, options);
    ASSERT_TRUE(index.ok());
    EXPECT_GE(index->build_info().table1_bytes, prev);
    prev = index->build_info().table1_bytes;
  }
}

TEST(IndexBuildTest, StockStandInFootprintIsLinear) {
  // Edge labels reference the tier's text instead of copying suffixes, so
  // the stored index is linear in the input: the paper's stock stand-in
  // under SST_C(ME, 40) stays within 6 bytes per input byte, and the only
  // label symbols stored are the text itself, one per element.
  const seqdb::SequenceDatabase db = datagen::GenerateStocks({});
  IndexOptions options;
  options.kind = IndexKind::kSparse;
  options.method = categorize::Method::kMaxEntropy;
  options.num_categories = 40;
  auto index = Index::Build(&db, options);
  ASSERT_TRUE(index.ok()) << index.status();
  const IndexBuildInfo& info = index->build_info();
  const std::uint64_t input_bytes = db.TotalElements() * sizeof(Value);
  EXPECT_LE(info.index_bytes, 6 * input_bytes);
  const suffixtree::TreeView& tree = *index->snapshot()->tiers().front()->view();
  EXPECT_EQ(tree.NumLabelSymbols(), db.TotalElements());
  // The paper's Table-1 figure counts every label materialized.
  EXPECT_EQ(info.table1_bytes,
            info.index_bytes +
                (tree.MaterializedLabelSymbols() - tree.NumLabelSymbols()) *
                    sizeof(Symbol));
  EXPECT_GT(info.table1_bytes, 6 * input_bytes);
}

TEST(IndexSearchTest, AllKindsAgreeWithEachOther) {
  const seqdb::SequenceDatabase db = TestDb(5);
  std::vector<Index> indexes;
  for (IndexKind kind : {IndexKind::kSuffixTree, IndexKind::kCategorized,
                         IndexKind::kSparse}) {
    IndexOptions options;
    options.kind = kind;
    options.num_categories = 12;
    auto index = Index::Build(&db, options);
    ASSERT_TRUE(index.ok());
    indexes.push_back(std::move(index).value());
  }
  Rng rng(55);
  for (int qi = 0; qi < 5; ++qi) {
    std::vector<Value> q;
    Value v = rng.Uniform(20, 80);
    const auto len = static_cast<std::size_t>(rng.UniformInt(2, 6));
    for (std::size_t i = 0; i < len; ++i) {
      q.push_back(v);
      v += rng.Gaussian(0, 1);
    }
    const Value eps = rng.Uniform(0, 9);
    const auto expected = SeqScan(db, q, eps);
    for (const Index& index : indexes) {
      testutil::ExpectSameMatches(
          expected, index.Search(q, eps),
          IndexKindToString(index.options().kind));
    }
  }
}

TEST(IndexSearchTest, StatsArePopulated) {
  const seqdb::SequenceDatabase db = TestDb(6);
  IndexOptions options;
  options.kind = IndexKind::kSparse;
  options.num_categories = 8;
  auto index = Index::Build(&db, options);
  ASSERT_TRUE(index.ok());
  const std::vector<Value> q(db.sequence(0).begin(),
                             db.sequence(0).begin() + 6);
  SearchStats stats;
  const auto matches = index->Search(q, 5.0, {}, &stats);
  EXPECT_GT(stats.nodes_visited, 0u);
  EXPECT_GT(stats.rows_pushed, 0u);
  EXPECT_GT(stats.cells_computed, 0u);
  EXPECT_EQ(stats.answers, matches.size());
  EXPECT_GE(stats.candidates, stats.answers);
}

TEST(IndexKindToStringTest, Names) {
  EXPECT_STREQ(IndexKindToString(IndexKind::kSuffixTree), "ST");
  EXPECT_STREQ(IndexKindToString(IndexKind::kCategorized), "ST_C");
  EXPECT_STREQ(IndexKindToString(IndexKind::kSparse), "SST_C");
}

TEST(LengthBoundedIndexTest, BandedSearchOnTruncatedIndexIsExact) {
  // The Section 8 extension: with a Sakoe-Chiba band w and query lengths in
  // [qmin, qmax], answers have length in [qmin - w, qmax + w]. Suffixes
  // shorter than the minimum answer length are skipped, longer ones
  // truncated to the maximum. Banded search over the bounded dense index
  // must equal the banded sequential scan for conforming queries.
  const seqdb::SequenceDatabase db = TestDb(7);
  const Pos band = 3;
  const Pos qmin = 5, qmax = 8;
  IndexOptions options;
  options.kind = IndexKind::kCategorized;
  options.num_categories = 10;
  options.min_suffix_length = qmin > band ? qmin - band : 1;
  options.max_suffix_length = qmax + band;
  auto index = Index::Build(&db, options);
  ASSERT_TRUE(index.ok());
  EXPECT_GT(index->build_info().skipped_suffixes, 0u);

  Rng rng(77);
  for (int qi = 0; qi < 6; ++qi) {
    std::vector<Value> q;
    Value v = rng.Uniform(20, 80);
    const auto len = static_cast<std::size_t>(
        rng.UniformInt(qmin, qmax));
    for (std::size_t i = 0; i < len; ++i) {
      q.push_back(v);
      v += rng.Gaussian(0, 1);
    }
    const Value eps = rng.Uniform(0, 8);
    SeqScanOptions scan_options;
    scan_options.band = band;
    QueryOptions query_options;
    query_options.band = band;
    testutil::ExpectSameMatches(SeqScan(db, q, eps, scan_options),
                                index->Search(q, eps, query_options),
                                "length-bounded query " + std::to_string(qi));
  }
}


TEST(LengthBoundedIndexTest, SparseWithLengthBoundsRejected) {
  // Length bounds are only sound with banded searches, and bands are
  // rejected on sparse indexes — so the combination must fail at build
  // time instead of silently dismissing answers.
  const seqdb::SequenceDatabase db = TestDb(8);
  IndexOptions options;
  options.kind = IndexKind::kSparse;
  options.num_categories = 8;
  options.min_suffix_length = 4;
  auto index = Index::Build(&db, options);
  ASSERT_FALSE(index.ok());
  EXPECT_EQ(index.status().code(), StatusCode::kInvalidArgument);
  options.min_suffix_length = 0;
  options.max_suffix_length = 30;
  EXPECT_FALSE(Index::Build(&db, options).ok());
}

}  // namespace
}  // namespace tswarp::core
