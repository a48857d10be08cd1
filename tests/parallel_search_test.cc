// Parallel == serial: for every index kind, range and k-NN searches with
// num_threads in {0, 1, 4} must return exactly the same match sets with
// the same distances, including on disk-backed indexes (shared buffer
// pools) and at k-NN tie boundaries. Also covers SearchBatch and the
// mergeability of SearchStats.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/index.h"
#include "datagen/generators.h"
#include "suffixtree/tree_view.h"
#include "test_util.h"

namespace tswarp::core {
namespace {

seqdb::SequenceDatabase RandomDb(std::uint64_t seed) {
  datagen::RandomWalkOptions options;
  options.num_sequences = 12;
  options.avg_length = 40;
  options.length_jitter = 8;
  options.seed = seed;
  return datagen::GenerateRandomWalks(options);
}

std::vector<Value> RandomQuery(Rng& rng, std::size_t len) {
  std::vector<Value> q;
  Value v = rng.Uniform(30, 70);
  for (std::size_t i = 0; i < len; ++i) {
    q.push_back(v);
    v += rng.Gaussian(0, 1.5);
  }
  return q;
}

void ExpectIdenticalKnn(const std::vector<Match>& serial,
                        const std::vector<Match>& parallel,
                        const std::string& context) {
  ASSERT_EQ(serial.size(), parallel.size()) << context;
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], parallel[i]) << context << " at " << i;
    EXPECT_DOUBLE_EQ(serial[i].distance, parallel[i].distance)
        << context << " at " << i;
  }
}

class ParallelSearchKindTest : public testing::TestWithParam<IndexKind> {};

TEST_P(ParallelSearchKindTest, RangeSearchMatchesSerial) {
  Rng rng(4242);
  for (int round = 0; round < 3; ++round) {
    const seqdb::SequenceDatabase db =
        RandomDb(900 + static_cast<std::uint64_t>(round));
    IndexOptions options;
    options.kind = GetParam();
    options.num_categories = 10;
    auto index = Index::Build(&db, options);
    ASSERT_TRUE(index.ok());
    const std::vector<Value> q =
        RandomQuery(rng, static_cast<std::size_t>(rng.UniformInt(3, 7)));
    for (const Value epsilon : {2.0, 6.0, 15.0}) {
      QueryOptions serial_opts;
      SearchStats serial_stats;
      const auto serial = index->Search(q, epsilon, serial_opts,
                                        &serial_stats);
      for (const std::size_t threads : {1u, 4u}) {
        QueryOptions par_opts;
        par_opts.num_threads = threads;
        SearchStats par_stats;
        const auto parallel = index->Search(q, epsilon, par_opts,
                                            &par_stats);
        testutil::ExpectSameMatches(
            serial, parallel,
            "round " + std::to_string(round) + " eps " +
                std::to_string(epsilon) + " threads " +
                std::to_string(threads));
        EXPECT_EQ(par_stats.answers, serial_stats.answers);
        // Every candidate the serial search verified is verified by
        // exactly one worker (no duplicated post-processing).
        EXPECT_EQ(par_stats.candidates, serial_stats.candidates);
      }
    }
  }
}

TEST_P(ParallelSearchKindTest, KnnMatchesSerial) {
  Rng rng(1717);
  for (int round = 0; round < 3; ++round) {
    const seqdb::SequenceDatabase db =
        RandomDb(1200 + static_cast<std::uint64_t>(round));
    IndexOptions options;
    options.kind = GetParam();
    options.num_categories = 10;
    auto index = Index::Build(&db, options);
    ASSERT_TRUE(index.ok());
    const std::vector<Value> q =
        RandomQuery(rng, static_cast<std::size_t>(rng.UniformInt(3, 6)));
    for (const std::size_t k : {1u, 7u, 25u}) {
      const auto serial = index->SearchKnn(q, k);
      for (const std::size_t threads : {1u, 4u}) {
        QueryOptions par_opts;
        par_opts.num_threads = threads;
        const auto parallel = index->SearchKnn(q, k, par_opts);
        ExpectIdenticalKnn(serial, parallel,
                           "round " + std::to_string(round) + " k " +
                               std::to_string(k) + " threads " +
                               std::to_string(threads));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllKinds, ParallelSearchKindTest,
                         testing::Values(IndexKind::kSuffixTree,
                                         IndexKind::kCategorized,
                                         IndexKind::kSparse),
                         [](const auto& info) {
                           return IndexKindToString(info.param);
                         });

TEST(ParallelSearchTest, DiskBackedIndexMatchesSerial) {
  const seqdb::SequenceDatabase db = RandomDb(31);
  IndexOptions options;
  options.kind = IndexKind::kSparse;
  options.num_categories = 8;
  options.disk_path = testing::TempDir() + "/parallel_disk_idx";
  options.disk_batch_sequences = 4;
  auto index = Index::Build(&db, options);
  ASSERT_TRUE(index.ok());
  const std::vector<Value> q(db.sequence(2).begin(),
                             db.sequence(2).begin() + 5);
  const auto serial = index->Search(q, 8.0);
  QueryOptions par_opts;
  par_opts.num_threads = 4;
  testutil::ExpectSameMatches(serial, index->Search(q, 8.0, par_opts),
                              "disk range");
  const auto knn_serial = index->SearchKnn(q, 9);
  ExpectIdenticalKnn(knn_serial, index->SearchKnn(q, 9, par_opts),
                     "disk knn");
  ASSERT_NE(index->disk_tree(), nullptr);

  // A reopen maps the same bundle again: concurrent workers read the
  // records straight out of the shared mappings.
  auto mapped = Index::Open(&db, options);
  ASSERT_TRUE(mapped.ok());
  testutil::ExpectSameMatches(serial, mapped->Search(q, 8.0, par_opts),
                              "reopened disk range");
  ExpectIdenticalKnn(knn_serial, mapped->SearchKnn(q, 9, par_opts),
                     "reopened disk knn");
  EXPECT_GT(mapped->MappedStats().mapped_bytes, 0u);
}

TEST(ParallelSearchTest, KnnTieBoundaryIsDeterministic) {
  // Four identical sequences: every subsequence exists in four copies, so
  // any k not divisible by four cuts through a tie group. The total order
  // (distance, seq, start, len) must resolve the boundary identically in
  // serial and parallel runs.
  const seqdb::Sequence base = {10, 12, 15, 13, 11, 14, 16, 12, 10, 13};
  seqdb::SequenceDatabase db;
  for (int i = 0; i < 4; ++i) db.Add(base);
  for (IndexKind kind : {IndexKind::kSuffixTree, IndexKind::kCategorized,
                         IndexKind::kSparse}) {
    IndexOptions options;
    options.kind = kind;
    options.num_categories = 6;
    auto index = Index::Build(&db, options);
    ASSERT_TRUE(index.ok());
    const std::vector<Value> q = {12, 14, 13};
    for (const std::size_t k : {2u, 5u, 11u}) {
      const auto serial = index->SearchKnn(q, k);
      ASSERT_EQ(serial.size(), k);
      for (const std::size_t threads : {1u, 4u}) {
        QueryOptions par_opts;
        par_opts.num_threads = threads;
        ExpectIdenticalKnn(serial, index->SearchKnn(q, k, par_opts),
                           std::string(IndexKindToString(kind)) + " k=" +
                               std::to_string(k) + " threads=" +
                               std::to_string(threads));
      }
    }
  }
}

TEST(ParallelSearchTest, SearchBatchMatchesPerQuerySearch) {
  Rng rng(77);
  const seqdb::SequenceDatabase db = RandomDb(55);
  IndexOptions options;
  options.kind = IndexKind::kSparse;
  options.num_categories = 10;
  auto index = Index::Build(&db, options);
  ASSERT_TRUE(index.ok());

  std::vector<std::vector<Value>> queries;
  std::vector<Value> epsilons;
  for (int i = 0; i < 9; ++i) {
    queries.push_back(
        RandomQuery(rng, static_cast<std::size_t>(rng.UniformInt(3, 6))));
    epsilons.push_back(rng.Uniform(3, 10));
  }

  std::vector<std::vector<Match>> expected;
  std::vector<SearchStats> expected_stats(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    expected.push_back(
        index->Search(queries[i], epsilons[i], {}, &expected_stats[i]));
  }

  for (const std::size_t threads : {0u, 1u, 4u}) {
    QueryOptions batch_opts;
    batch_opts.num_threads = threads;
    std::vector<SearchStats> stats;
    const auto results =
        index->SearchBatch(queries, epsilons, batch_opts, &stats);
    ASSERT_EQ(results.size(), queries.size());
    ASSERT_EQ(stats.size(), queries.size());
    for (std::size_t i = 0; i < queries.size(); ++i) {
      testutil::ExpectSameMatches(expected[i], results[i],
                                  "batch query " + std::to_string(i) +
                                      " threads " + std::to_string(threads));
      // Batched queries run serially inside: stats are bit-identical.
      EXPECT_EQ(stats[i].rows_pushed, expected_stats[i].rows_pushed);
      EXPECT_EQ(stats[i].candidates, expected_stats[i].candidates);
      EXPECT_EQ(stats[i].answers, expected_stats[i].answers);
    }
  }

  // Shared single epsilon form.
  const auto shared_eps =
      index->SearchBatch(queries, {epsilons[0]}, QueryOptions{});
  for (std::size_t i = 0; i < queries.size(); ++i) {
    testutil::ExpectSameMatches(index->Search(queries[i], epsilons[0]),
                                shared_eps[i],
                                "shared-eps query " + std::to_string(i));
  }
}

TEST(ParallelSearchTest, MergedStatsCoverTheWholeTraversal) {
  const seqdb::SequenceDatabase db = RandomDb(303);
  IndexOptions options;
  options.kind = IndexKind::kSparse;
  options.num_categories = 10;
  auto index = Index::Build(&db, options);
  ASSERT_TRUE(index.ok());
  const std::vector<Value> q(db.sequence(1).begin(),
                             db.sequence(1).begin() + 6);
  SearchStats serial;
  index->Search(q, 6.0, {}, &serial);
  QueryOptions par_opts;
  par_opts.num_threads = 4;
  SearchStats merged;
  index->Search(q, 6.0, par_opts, &merged);
  // Each root edge is traversed by exactly one range task from an empty
  // table, so the workers together do exactly the serial traversal.
  EXPECT_EQ(merged.nodes_visited, serial.nodes_visited);
  EXPECT_EQ(merged.rows_pushed, serial.rows_pushed);
  EXPECT_EQ(merged.answers, serial.answers);
  EXPECT_EQ(merged.cells_computed, merged.rows_pushed * q.size());

  SearchStats a = serial;
  a.Merge(merged);
  EXPECT_EQ(a.rows_pushed, serial.rows_pushed + merged.rows_pushed);
  EXPECT_EQ(a.candidates, serial.candidates + merged.candidates);
}

// The dictionary tree (ST) of real-valued walks has one root edge per
// distinct value: thousands here. A parallel search splits once over the
// root's edges, so it runs at most 4 * num_threads range tasks (plus the
// one tier task) however wide the root is, with answers and traversal
// counters equal to serial.
TEST(ParallelSearchTest, WideRootSplitsOnceIntoBoundedRanges) {
  datagen::RandomWalkOptions walk;
  walk.num_sequences = 20;
  walk.avg_length = 150;
  walk.seed = 4040;
  const seqdb::SequenceDatabase db = datagen::GenerateRandomWalks(walk);
  IndexOptions options;
  options.kind = IndexKind::kSuffixTree;
  auto index = Index::Build(&db, options);
  ASSERT_TRUE(index.ok());
  const auto& tiers = index->snapshot()->tiers();
  ASSERT_EQ(tiers.size(), 1u);
  suffixtree::Children root;
  tiers[0]->view()->GetChildren(tiers[0]->view()->Root(), &root);
  ASSERT_GE(root.edges.size(), 2000u);
  const std::vector<Value> q(db.sequence(5).begin() + 40,
                             db.sequence(5).begin() + 46);

  SearchStats serial_stats;
  const auto serial = index->Search(q, 3.0, {}, &serial_stats);
  ASSERT_GE(serial_stats.answers, 1u);
  const auto knn_serial = index->SearchKnn(q, 15);
  for (const std::size_t threads : {1u, 4u}) {
    const std::string context = "threads " + std::to_string(threads);
    QueryOptions par_opts;
    par_opts.num_threads = threads;
    SearchStats range_stats;
    testutil::ExpectSameMatches(
        serial, index->Search(q, 3.0, par_opts, &range_stats), context);
    EXPECT_LE(range_stats.tasks_executed, 1 + 4 * threads) << context;
    EXPECT_EQ(range_stats.nodes_visited, serial_stats.nodes_visited)
        << context;
    EXPECT_EQ(range_stats.rows_pushed, serial_stats.rows_pushed) << context;

    SearchStats knn_stats;
    ExpectIdenticalKnn(knn_serial,
                       index->SearchKnn(q, 15, par_opts, &knn_stats),
                       "knn " + context);
    EXPECT_LE(knn_stats.tasks_executed, 1 + 4 * threads) << context;
  }
}

}  // namespace
}  // namespace tswarp::core
