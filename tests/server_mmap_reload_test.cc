// Hot-reloading mmap-backed indexes under concurrent search traffic.
//
// The TSan-targeted race surface: server::IndexHandle::Replace retires an
// index whose tiers hold live mmap'd regions while searcher threads still
// run queries through pinned snapshots. The snapshot pin must keep every
// retired mapping alive until the last in-flight query drops it — a
// mapping unmapped too early is a use-after-munmap. The CI TSan job
// selects this suite by the MmapReload name.

#include <atomic>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/index.h"
#include "datagen/generators.h"
#include "server/index_handle.h"

namespace tswarp::server {
namespace {

using core::Index;
using core::IndexOptions;
using core::Match;
using core::QueryOptions;

seqdb::SequenceDatabase MakeDb() {
  datagen::RandomWalkOptions options;
  options.num_sequences = 10;
  options.avg_length = 32;
  options.seed = 97;
  return datagen::GenerateRandomWalks(options);
}

IndexOptions MmapOptions(const std::string& path) {
  IndexOptions options;
  options.kind = core::IndexKind::kSparse;
  options.num_categories = 8;
  options.disk_path = path;
  options.disk_batch_sequences = 4;
  return options;
}

void ExpectIdentical(const std::vector<Match>& expected,
                     const std::vector<Match>& actual) {
  ASSERT_EQ(expected.size(), actual.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(expected[i], actual[i]) << "at " << i;
    ASSERT_EQ(expected[i].distance, actual[i].distance) << "at " << i;
  }
}

TEST(MmapReloadTest, ReplaceUnderConcurrentMmapSearches) {
  const seqdb::SequenceDatabase db = MakeDb();
  const std::string base_a = testing::TempDir() + "/mmap_reload_a";
  const std::string base_b = testing::TempDir() + "/mmap_reload_b";
  // Two persisted bundles over the same data: alternating between them
  // makes every Replace retire a mapping the searchers may still read.
  ASSERT_TRUE(Index::Build(&db, MmapOptions(base_a)).ok());
  ASSERT_TRUE(Index::Build(&db, MmapOptions(base_b)).ok());

  const std::vector<Value> q(db.sequence(3).begin(),
                             db.sequence(3).begin() + 5);
  const Value eps = 8.0;

  auto first = Index::Open(&db, MmapOptions(base_a));
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_GT(first->MappedStats().mapped_bytes, 0u);
  const std::vector<Match> reference = first->Search(q, eps);
  const std::vector<Match> knn_reference = first->SearchKnn(q, 7);
  IndexHandle handle(std::move(*first));

  std::atomic<bool> stop{false};
  std::atomic<int> searches{0};
  std::vector<std::thread> searchers;
  for (int t = 0; t < 4; ++t) {
    searchers.emplace_back([&, t] {
      QueryOptions qo;
      qo.num_threads = (t % 2 == 0) ? 0u : 2u;
      while (!stop.load(std::memory_order_relaxed)) {
        const auto snapshot = handle.Snapshot();
        ExpectIdentical(reference, snapshot->Search(q, eps, qo));
        ExpectIdentical(knn_reference, snapshot->SearchKnn(q, 7, qo));
        searches.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // Reload loop: each iteration maps a fresh bundle and retires the
  // previous one; the retired tiers unmap on whichever thread drops the
  // last snapshot pin.
  for (int round = 0; round < 24; ++round) {
    auto next =
        Index::Open(&db, MmapOptions(round % 2 == 0 ? base_b : base_a));
    ASSERT_TRUE(next.ok()) << next.status().ToString();
    handle.Replace(std::move(*next));
    std::this_thread::yield();
  }
  // Let the searchers observe the final published snapshot too.
  const int drained = searches.load() + 1;
  while (searches.load() < drained) std::this_thread::yield();
  stop.store(true);
  for (auto& thread : searchers) thread.join();
  EXPECT_GT(searches.load(), 0);

  const auto final_snapshot = handle.Snapshot();
  ExpectIdentical(reference, final_snapshot->Search(q, eps));
  EXPECT_GT(final_snapshot->MappedStats().mapped_bytes, 0u);
}

}  // namespace
}  // namespace tswarp::server
