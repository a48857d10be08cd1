// Unit tests for the pieces the unified search driver is assembled from:
// the ResultCollector (shared range/k-NN result collection), the
// deterministic k-NN total order, and direct SearchDriver<Model> runs
// (the same template the tree search, the multivariate index, and any
// future distance model instantiate).

#include <vector>

#include <gtest/gtest.h>

#include "core/distance_models.h"
#include "core/index.h"
#include "core/match.h"
#include "core/result_collector.h"
#include "core/search_driver.h"
#include "seqdb/sequence_database.h"
#include "suffixtree/suffix_tree.h"
#include "suffixtree/symbol_database.h"

namespace tswarp::core {
namespace {

TEST(KnnMatchLessTest, OrdersByDistanceThenPosition) {
  const Match a{0, 0, 1, 1.0};
  const Match b{0, 0, 1, 2.0};
  EXPECT_TRUE(KnnMatchLess(a, b));
  EXPECT_FALSE(KnnMatchLess(b, a));
  // Equal distance: falls back to (seq, start, len) — a total order, so
  // k-NN results are deterministic even with tied distances.
  const Match c{1, 0, 1, 1.0};
  const Match d{0, 3, 1, 1.0};
  EXPECT_TRUE(KnnMatchLess(a, c));
  EXPECT_TRUE(KnnMatchLess(d, c));
  EXPECT_FALSE(KnnMatchLess(c, d));
}

TEST(ResultCollectorTest, RangeModeKeepsEpsilonAndSortsOnTake) {
  ResultCollector collector(/*epsilon=*/5.0, /*knn_k=*/0);
  EXPECT_EQ(collector.epsilon(), 5.0);
  std::vector<Match> local;
  collector.Report({2, 0, 1, 4.0}, &local);
  collector.Report({0, 1, 2, 3.0}, &local);
  collector.Report({0, 0, 1, 1.0}, &local);
  EXPECT_EQ(collector.epsilon(), 5.0);  // Range mode never shrinks.
  collector.DrainRange(&local);
  const std::vector<Match> out = collector.Take();
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].seq, 0u);
  EXPECT_EQ(out[0].start, 0u);
  EXPECT_EQ(out[1].seq, 0u);
  EXPECT_EQ(out[1].start, 1u);
  EXPECT_EQ(out[2].seq, 2u);
}

TEST(ResultCollectorTest, KnnModeShrinksEpsilonMonotonically) {
  ResultCollector collector(/*epsilon=*/0.0, /*knn_k=*/2);
  EXPECT_EQ(collector.epsilon(), kInfinity);  // Starts unbounded.
  collector.Report({0, 0, 1, 5.0}, nullptr);
  EXPECT_EQ(collector.epsilon(), kInfinity);  // Heap not yet full.
  collector.Report({0, 1, 1, 3.0}, nullptr);
  EXPECT_EQ(collector.epsilon(), 5.0);  // Full: k-th best distance.
  collector.Report({0, 2, 1, 4.0}, nullptr);
  EXPECT_EQ(collector.epsilon(), 4.0);  // 5.0 evicted.
  collector.Report({0, 3, 1, 9.0}, nullptr);
  EXPECT_EQ(collector.epsilon(), 4.0);  // Worse match ignored.
  const std::vector<Match> out = collector.Take();
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].distance, 3.0);
  EXPECT_EQ(out[1].distance, 4.0);
}

TEST(ResultCollectorTest, KnnTieAtBoundaryIsDeterministic) {
  // Two matches with the k-th distance: the one earlier in
  // (seq, start, len) wins, regardless of report order.
  for (const bool reversed : {false, true}) {
    ResultCollector collector(/*epsilon=*/0.0, /*knn_k=*/1);
    const Match early{0, 1, 1, 2.0};
    const Match late{3, 0, 1, 2.0};
    collector.Report(reversed ? late : early, nullptr);
    collector.Report(reversed ? early : late, nullptr);
    const std::vector<Match> out = collector.Take();
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].seq, 0u) << "reversed=" << reversed;
  }
}

/// A tiny exact-value index built by hand: three sequences over the
/// symbol alphabet {0, 1, 2} decoding to {1.0, 5.0, 9.0}.
struct TinyExactIndex {
  TinyExactIndex()
      : symbol_values({1.0, 5.0, 9.0}),
        symbols(std::vector<std::vector<Symbol>>{
            {0, 1, 2, 1}, {2, 2, 0}, {1, 0, 1, 0, 2}}),
        tree(suffixtree::BuildSuffixTree(symbols, {})) {}

  std::vector<Value> symbol_values;
  suffixtree::SymbolDatabase symbols;
  suffixtree::SuffixTree tree;
};

TEST(SearchDriverTest, DirectExactModelRunMatchesTreeSearch) {
  const TinyExactIndex tiny;
  const std::vector<Value> query = {1.0, 5.0};
  const Value eps = 4.5;

  // The tiny index's sequences as raw values, behind the public ST index.
  seqdb::SequenceDatabase db;
  db.Add({1.0, 5.0, 9.0, 5.0});
  db.Add({9.0, 9.0, 1.0});
  db.Add({5.0, 1.0, 5.0, 1.0, 9.0});
  IndexOptions options;
  options.kind = IndexKind::kSuffixTree;
  StatusOr<Index> index = Index::Build(&db, options);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  SearchStats via_index;
  const std::vector<Match> expected =
      index->Search(query, eps, {}, &via_index);
  ASSERT_FALSE(expected.empty());

  // The same search, driving the template directly the way any new
  // distance model would.
  DriverConfig driver;
  driver.tree = &tiny.tree;
  driver.query_length = query.size();
  driver.query = query;  // Univariate models need the bound query span.
  const ExactModel model(query, &tiny.symbol_values);
  for (const std::size_t threads : {0u, 2u}) {
    DriverConfig run = driver;
    run.num_threads = threads;
    QueryContext ctx(eps, /*knn_k=*/0);
    SearchStats stats;
    const std::vector<Match> got =
        SearchDriver<ExactModel>(run, model).Run(&ctx, &stats);
    ASSERT_EQ(expected.size(), got.size()) << "threads " << threads;
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(expected[i].seq, got[i].seq);
      EXPECT_EQ(expected[i].start, got[i].start);
      EXPECT_EQ(expected[i].len, got[i].len);
      EXPECT_EQ(expected[i].distance, got[i].distance);
    }
    EXPECT_EQ(stats.answers, via_index.answers);
  }
}

TEST(SearchDriverTest, KnnRunThroughContextShrinksThreshold) {
  const TinyExactIndex tiny;
  const std::vector<Value> query = {5.0};
  DriverConfig driver;
  driver.tree = &tiny.tree;
  driver.query_length = query.size();
  driver.query = query;  // Univariate models need the bound query span.
  const ExactModel model(query, &tiny.symbol_values);
  QueryContext ctx(/*epsilon=*/0.0, /*knn_k=*/3);
  SearchStats stats;
  const std::vector<Match> got =
      SearchDriver<ExactModel>(driver, model).Run(&ctx, &stats);
  ASSERT_EQ(got.size(), 3u);
  // Sorted by (distance, seq, start, len); the database holds four exact
  // occurrences of value 5.0, so all three results are distance 0.
  EXPECT_EQ(got[0].distance, 0.0);
  EXPECT_EQ(got[2].distance, 0.0);
  EXPECT_TRUE(KnnMatchLess(got[0], got[1]));
  EXPECT_TRUE(KnnMatchLess(got[1], got[2]));
  EXPECT_EQ(ctx.collector.epsilon(), 0.0);  // Shrunk to the k-th best.
  EXPECT_EQ(stats.answers, 3u);
}

}  // namespace
}  // namespace tswarp::core
