// End-to-end user workflow: generate data, persist the database, build a
// disk index, reopen both from disk, query, consolidate, k-NN — the whole
// public API surface in one scenario.

#include <filesystem>

#include <gtest/gtest.h>

#include "core/consolidate.h"
#include "core/index.h"
#include "core/seq_scan.h"
#include "datagen/generators.h"
#include "test_util.h"

namespace tswarp {
namespace {

class IntegrationTest : public testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("tswarp_integration_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::filesystem::path dir_;
};

TEST_F(IntegrationTest, FullLifecycle) {
  // 1. Generate and persist a database.
  datagen::StockOptions stock;
  stock.num_sequences = 30;
  stock.avg_length = 90;
  stock.seed = 1234;
  seqdb::SequenceDatabase generated = datagen::GenerateStocks(stock);
  const std::string db_path = (dir_ / "market.db").string();
  ASSERT_TRUE(generated.Save(db_path).ok());

  // 2. Reload it (a separate "process").
  auto loaded = seqdb::SequenceDatabase::Load(db_path);
  ASSERT_TRUE(loaded.ok());
  const seqdb::SequenceDatabase& db = *loaded;
  ASSERT_EQ(db.size(), generated.size());

  // 3. Build a persistent disk index.
  core::IndexOptions options;
  options.kind = core::IndexKind::kSparse;
  options.method = categorize::Method::kMaxEntropy;
  options.num_categories = 24;
  options.disk_path = (dir_ / "market_idx").string();
  options.disk_batch_sequences = 8;
  auto built = core::Index::Build(&db, options);
  ASSERT_TRUE(built.ok()) << built.status();

  // 4. Reopen the index without rebuilding and run queries.
  auto index = core::Index::Open(&db, options);
  ASSERT_TRUE(index.ok()) << index.status();

  datagen::QueryWorkloadOptions workload;
  workload.num_queries = 5;
  workload.avg_length = 12;
  const auto queries = datagen::ExtractQueries(db, workload);
  for (std::size_t qi = 0; qi < queries.size(); ++qi) {
    const Value eps = 3.0 + static_cast<Value>(qi) * 2.0;
    const auto matches = index->Search(queries[qi], eps);
    testutil::ExpectSameMatches(core::SeqScan(db, queries[qi], eps),
                                matches, "query " + std::to_string(qi));
    // 5. Consolidate overlapping windows; representatives must be a
    //    subset of the raw matches and keep the global best distance.
    const auto consolidated = core::ConsolidateMatches(matches);
    EXPECT_LE(consolidated.size(), matches.size());
    if (!matches.empty()) {
      Value best_raw = 1e18, best_consolidated = 1e18;
      for (const auto& m : matches) best_raw = std::min(best_raw,
                                                        m.distance);
      for (const auto& m : consolidated) {
        best_consolidated = std::min(best_consolidated, m.distance);
      }
      EXPECT_DOUBLE_EQ(best_raw, best_consolidated);
    }
    // 6. k-NN returns the same best match as the range search's minimum.
    const auto top1 = index->SearchKnn(queries[qi], 1);
    ASSERT_EQ(top1.size(), 1u);
    EXPECT_NEAR(top1[0].distance, 0.0, 1e-9)
        << "the query was cut from the database, so the 1-NN is exact";
  }
}

}  // namespace
}  // namespace tswarp
