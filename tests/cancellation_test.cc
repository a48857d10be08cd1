// Deadline / cooperative-cancellation tests: a cancelled search must
// return a *sound subset* of the full answer (every reported match exact,
// nothing fabricated — the no-false-dismissal contract holds for the
// completed work), set SearchStats::cancelled, and leave the shared
// scheduler and arenas fully reusable for the next query.

#include "common/cancellation.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/index.h"
#include "datagen/generators.h"
#include "test_util.h"

namespace tswarp::core {
namespace {

seqdb::SequenceDatabase TestDb(std::uint64_t seed = 11) {
  datagen::RandomWalkOptions options;
  options.num_sequences = 20;
  options.avg_length = 60;
  options.length_jitter = 10;
  options.seed = seed;
  return datagen::GenerateRandomWalks(options);
}

std::vector<Value> TestQuery(const seqdb::SequenceDatabase& db) {
  const std::span<const Value> sub = db.Subsequence(1, 3, 10);
  return std::vector<Value>(sub.begin(), sub.end());
}

Index BuildIndex(const seqdb::SequenceDatabase& db) {
  IndexOptions options;
  options.kind = IndexKind::kCategorized;
  options.num_categories = 12;
  auto index = Index::Build(&db, options);
  EXPECT_TRUE(index.ok()) << index.status().ToString();
  return std::move(*index);
}

/// Every partial match must appear in the full answer with the same
/// distance: the cancelled traversal may stop early but never invent or
/// corrupt a result.
void ExpectSoundSubset(const std::vector<Match>& full,
                       const std::vector<Match>& partial) {
  for (const Match& m : partial) {
    const auto it = std::find(full.begin(), full.end(), m);
    ASSERT_NE(it, full.end())
        << "cancelled search fabricated (" << m.seq << "," << m.start << ","
        << m.len << ")";
    EXPECT_NEAR(it->distance, m.distance, 1e-12);
  }
}

TEST(CancelTokenTest, FlagAndDeadlineFoldIntoOnePoll) {
  CancelToken token;
  EXPECT_FALSE(token.cancelled());
  EXPECT_FALSE(token.Expired());  // Unarmed: no clock read, not expired.
  token.ArmDeadlineAfter(std::chrono::hours(1));
  EXPECT_FALSE(token.Expired());
  token.ArmDeadlineAfter(std::chrono::milliseconds(-1));
  EXPECT_TRUE(token.Expired());  // Past deadline fires immediately.
  EXPECT_FALSE(token.cancelled());  // ...but is not an explicit cancel.
  token.Cancel();
  EXPECT_TRUE(token.cancelled());
  token.Cancel();  // Idempotent.
  EXPECT_TRUE(token.cancelled());
}

TEST(CancellationSearchTest, PreCancelledSearchReturnsNothingAndFlags) {
  const seqdb::SequenceDatabase db = TestDb();
  const Index index = BuildIndex(db);
  const std::vector<Value> query = TestQuery(db);

  CancelToken token;
  token.Cancel();
  QueryOptions options;
  options.cancel = &token;
  SearchStats stats;
  const std::vector<Match> matches =
      index.Search(query, 8.0, options, &stats);
  EXPECT_TRUE(matches.empty());
  EXPECT_EQ(stats.cancelled, 1u);  // Serial: exactly one worker aborted.
}

TEST(CancellationSearchTest, PartialResultsAreASoundSubset) {
  const seqdb::SequenceDatabase db = TestDb(13);
  const Index index = BuildIndex(db);
  const std::vector<Value> query = TestQuery(db);
  const std::vector<Match> full = index.Search(query, 8.0);
  ASSERT_FALSE(full.empty());

  // Sweep deadlines from instantly-expired to comfortably-large. Each run
  // either completes (identical answer) or aborts (sound subset +
  // cancelled flag); both outcomes are legal at every budget, the
  // invariants are what matters.
  bool saw_cancelled = false;
  bool saw_complete = false;
  for (const auto budget :
       {std::chrono::microseconds(0), std::chrono::microseconds(200),
        std::chrono::microseconds(2000), std::chrono::microseconds(500000)}) {
    CancelToken token;
    token.ArmDeadlineAfter(budget);
    QueryOptions options;
    options.cancel = &token;
    SearchStats stats;
    const std::vector<Match> partial =
        index.Search(query, 8.0, options, &stats);
    if (stats.cancelled > 0) {
      saw_cancelled = true;
      EXPECT_LE(partial.size(), full.size());
      ExpectSoundSubset(full, partial);
    } else {
      saw_complete = true;
      testutil::ExpectSameMatches(full, partial, "uncancelled run");
    }
  }
  EXPECT_TRUE(saw_cancelled);  // The 0us budget always trips.
  EXPECT_TRUE(saw_complete);   // The 500ms budget never does (tiny db).
}

TEST(CancellationSearchTest, CancelFromAnotherThreadMidSearch) {
  const seqdb::SequenceDatabase db = TestDb(17);
  const Index index = BuildIndex(db);
  const std::vector<Value> query = TestQuery(db);
  const std::vector<Match> full = index.Search(query, 8.0);

  CancelToken token;
  std::thread canceller([&token] {
    std::this_thread::sleep_for(std::chrono::microseconds(300));
    token.Cancel();
  });
  QueryOptions options;
  options.cancel = &token;
  SearchStats stats;
  const std::vector<Match> partial =
      index.Search(query, 8.0, options, &stats);
  canceller.join();
  // Whether the cancel landed before or after completion, the result must
  // be sound.
  ExpectSoundSubset(full, partial);
  if (stats.cancelled == 0) {
    testutil::ExpectSameMatches(full, partial, "cancel landed too late");
  }
}

TEST(CancellationSearchTest, SchedulerAndArenasReusableAfterCancel) {
  const seqdb::SequenceDatabase db = TestDb(19);
  const Index index = BuildIndex(db);
  const std::vector<Value> query = TestQuery(db);
  const std::vector<Match> baseline = index.Search(query, 8.0);

  // A cancelled *parallel* search exercises the abort path on scheduler
  // workers (early task exit)...
  CancelToken token;
  token.Cancel();
  QueryOptions cancelled;
  cancelled.cancel = &token;
  cancelled.num_threads = 4;
  SearchStats stats;
  const std::vector<Match> aborted =
      index.Search(query, 8.0, cancelled, &stats);
  EXPECT_GE(stats.cancelled, 1u);
  ExpectSoundSubset(baseline, aborted);

  // ...after which the same process-wide scheduler and thread-local
  // arenas must serve clean searches, serial and parallel, unperturbed.
  QueryOptions parallel;
  parallel.num_threads = 4;
  testutil::ExpectSameMatches(baseline, index.Search(query, 8.0, parallel),
                              "parallel after cancel");
  testutil::ExpectSameMatches(baseline, index.Search(query, 8.0),
                              "serial after cancel");
}

TEST(CancellationSearchTest, KnnHonoursTheToken) {
  const seqdb::SequenceDatabase db = TestDb(23);
  const Index index = BuildIndex(db);
  const std::vector<Value> query = TestQuery(db);
  SearchStats full_stats;
  const std::vector<Match> full = index.SearchKnn(query, 5, {}, &full_stats);
  ASSERT_EQ(full.size(), 5u);
  ASSERT_GT(full_stats.scan_rows, 0u);

  CancelToken token;
  token.Cancel();
  QueryOptions options;
  options.cancel = &token;
  SearchStats stats;
  const std::vector<Match> partial =
      index.SearchKnn(query, 5, options, &stats);
  EXPECT_EQ(stats.cancelled, 1u);
  // The k-NN seed polls the token too: nothing was scanned.
  EXPECT_EQ(stats.scan_rows, 0u);
  EXPECT_EQ(stats.candidates, 0u);
  EXPECT_LE(partial.size(), 5u);
  // Reported distances stay sorted (the collector's contract) even on the
  // abort path.
  for (std::size_t i = 1; i < partial.size(); ++i) {
    EXPECT_LE(partial[i - 1].distance, partial[i].distance);
  }
  // And the index still answers exactly afterwards.
  testutil::ExpectSameMatches(full, index.SearchKnn(query, 5),
                              "knn after cancel");
}

TEST(CancellationSearchTest, OneTokenCoversAWholeBatch) {
  const seqdb::SequenceDatabase db = TestDb(29);
  const Index index = BuildIndex(db);
  const std::vector<Value> query = TestQuery(db);
  const std::vector<std::vector<Value>> queries = {query, query, query};
  const std::vector<Value> epsilons = {8.0, 8.0, 8.0};

  CancelToken token;
  token.Cancel();
  QueryOptions options;
  options.cancel = &token;
  options.num_threads = 2;
  std::vector<SearchStats> stats;
  const std::vector<std::vector<Match>> results =
      index.SearchBatch(queries, epsilons, options, &stats);
  ASSERT_EQ(results.size(), 3u);
  ASSERT_EQ(stats.size(), 3u);
  const std::vector<Match> full = index.Search(query, 8.0);
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(stats[i].cancelled, 1u) << "query " << i;
    ExpectSoundSubset(full, results[i]);
  }
}

}  // namespace
}  // namespace tswarp::core
