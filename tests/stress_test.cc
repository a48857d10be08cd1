// Heavier randomized differential tests: realistic stock-shaped data, the
// paper's stratified query workload, disk- and memory-backed indexes, all
// three algorithms, with sequential scanning as ground truth.

#include <atomic>
#include <filesystem>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/index.h"
#include "core/seq_scan.h"
#include "datagen/generators.h"
#include "suffixtree/disk_tree.h"
#include "test_util.h"

namespace tswarp::core {
namespace {

using categorize::Method;

class StressTest : public testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("tswarp_stress_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::filesystem::path dir_;
};

TEST_F(StressTest, StockWorkloadAllConfigurations) {
  datagen::StockOptions stock;
  stock.num_sequences = 25;
  stock.avg_length = 70;
  stock.seed = 31;
  const seqdb::SequenceDatabase db = datagen::GenerateStocks(stock);
  datagen::QueryWorkloadOptions workload;
  workload.num_queries = 6;
  workload.avg_length = 10;
  workload.length_jitter = 3;
  const auto queries = datagen::ExtractQueries(db, workload);

  int config_id = 0;
  for (const IndexKind kind : {IndexKind::kSuffixTree,
                               IndexKind::kCategorized, IndexKind::kSparse}) {
    for (const Method method : {Method::kEqualLength, Method::kMaxEntropy,
                                Method::kKMeans}) {
      for (const std::size_t categories : {3u, 24u}) {
        if (kind == IndexKind::kSuffixTree &&
            (method != Method::kEqualLength || categories != 3u)) {
          continue;  // ST ignores categorization; test it once.
        }
        IndexOptions options;
        options.kind = kind;
        options.method = method;
        options.num_categories = categories;
        auto memory_index = Index::Build(&db, options);
        ASSERT_TRUE(memory_index.ok()) << memory_index.status();
        options.disk_path =
            (dir_ / ("idx" + std::to_string(config_id++))).string();
        options.disk_batch_sequences = 7;
        auto disk_index = Index::Build(&db, options);
        ASSERT_TRUE(disk_index.ok()) << disk_index.status();

        for (std::size_t qi = 0; qi < queries.size(); ++qi) {
          const Value eps = 2.0 + static_cast<Value>(qi) * 3.0;
          const auto expected = SeqScan(db, queries[qi], eps);
          const std::string context =
              std::string(IndexKindToString(kind)) + "/" +
              categorize::MethodToString(method) + "/" +
              std::to_string(categories) + " q" + std::to_string(qi);
          testutil::ExpectSameMatches(
              expected, memory_index->Search(queries[qi], eps),
              context + " (memory)");
          testutil::ExpectSameMatches(
              expected, disk_index->Search(queries[qi], eps),
              context + " (disk)");
        }
      }
    }
  }
}

TEST_F(StressTest, PlateauHeavyDataMaximizesSparseRecovery) {
  // Rounded random walks create long runs of equal categorized symbols,
  // the regime where SST_C answers mostly come from D_tw-lb2 virtual
  // suffixes.
  Rng rng(67);
  seqdb::SequenceDatabase db;
  for (int i = 0; i < 10; ++i) {
    seqdb::Sequence s;
    Value v = std::round(rng.Uniform(10, 20));
    for (int p = 0; p < 60; ++p) {
      if (rng.Coin(0.25)) v += std::round(rng.Gaussian(0, 2));
      s.push_back(v);
    }
    db.Add(std::move(s));
  }
  IndexOptions options;
  options.kind = IndexKind::kSparse;
  options.num_categories = 6;
  auto index = Index::Build(&db, options);
  ASSERT_TRUE(index.ok());
  // High compaction confirms the regime.
  EXPECT_GT(index->build_info().compaction_ratio, 0.5);
  for (int qi = 0; qi < 8; ++qi) {
    std::vector<Value> q;
    Value v = std::round(rng.Uniform(10, 20));
    const auto len = static_cast<std::size_t>(rng.UniformInt(2, 7));
    for (std::size_t i = 0; i < len; ++i) {
      q.push_back(v);
      if (rng.Coin(0.4)) v += 1.0;
    }
    const Value eps = rng.Uniform(0, 6);
    testutil::ExpectSameMatches(SeqScan(db, q, eps), index->Search(q, eps),
                                "plateau q" + std::to_string(qi));
  }
}

TEST_F(StressTest, EcgWorkload) {
  datagen::EcgOptions ecg;
  ecg.num_sequences = 6;
  ecg.length = 120;
  const seqdb::SequenceDatabase db = datagen::GenerateEcg(ecg);
  IndexOptions options;
  options.kind = IndexKind::kSparse;
  options.num_categories = 16;
  auto index = Index::Build(&db, options);
  ASSERT_TRUE(index.ok());
  Rng rng(41);
  for (int qi = 0; qi < 5; ++qi) {
    const auto id = static_cast<SeqId>(rng.UniformInt(0, 5));
    const auto start = static_cast<Pos>(rng.UniformInt(0, 100));
    const std::vector<Value> q(
        db.sequence(id).begin() + start,
        db.sequence(id).begin() + start + 12);
    const Value eps = rng.Uniform(0, 20);
    testutil::ExpectSameMatches(SeqScan(db, q, eps), index->Search(q, eps),
                                "ecg q" + std::to_string(qi));
  }
}

TEST_F(StressTest, ConcurrentTraversalsOfOneMappedTree) {
  using namespace tswarp::suffixtree;
  // Many workers walk one shared mapped DiskSuffixTree at once (run
  // under TSan in CI): the read accessors share no mutable state, so
  // every full DFS sees every occurrence.
  Rng rng(42);
  SymbolDatabase db;
  for (int i = 0; i < 12; ++i) {
    SymbolSequence s;
    const int len = static_cast<int>(rng.UniformInt(5, 40));
    for (int p = 0; p < len; ++p) {
      s.push_back(static_cast<Symbol>(rng.UniformInt(0, 3)));
    }
    db.Add(std::move(s));
  }
  const SuffixTree memory_tree = BuildSuffixTree(db);
  const std::string base = (dir_ / "tree").string();
  ASSERT_TRUE(WriteTreeToDisk(memory_tree, base).ok());
  auto disk = DiskSuffixTree::Open(base);
  ASSERT_TRUE(disk.ok()) << disk.status();
  const DiskSuffixTree& tree = **disk;
  const std::uint64_t expected_occs = tree.NumOccurrences();

  constexpr int kThreads = 4;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> searchers;
  for (int t = 0; t < kThreads; ++t) {
    searchers.emplace_back([&] {
      for (int round = 0; round < 8; ++round) {
        // Full DFS: every node's children and occurrences.
        std::uint64_t seen = 0;
        std::vector<NodeId> stack = {tree.Root()};
        Children children;
        std::vector<OccurrenceRec> occs;
        while (!stack.empty()) {
          const NodeId n = stack.back();
          stack.pop_back();
          occs.clear();
          tree.GetOccurrences(n, &occs);
          seen += occs.size();
          tree.GetChildren(n, &children);
          for (const Children::Edge& e : children.edges) {
            stack.push_back(e.child);
          }
        }
        if (seen != expected_occs ||
            tree.SubtreeOccCount(tree.Root()) != expected_occs) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : searchers) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace tswarp::core
