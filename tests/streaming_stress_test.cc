// Streaming stress suite — the TSan CI leg's coverage of the tiered
// index's concurrency contract: appends, background compactions,
// snapshot-pinned searches, and continuous-query delivery all racing.
// Functional assertions are deliberately loose (monotonic counters,
// exactly-once sets); the point is that TSan sees every cross-thread
// edge: Append publishing while searchers take snapshots, the merge
// worker retiring tiers out from under pinned readers, and callbacks
// firing while Unregister runs.

#include <atomic>
#include <latch>
#include <set>
#include <thread>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/index.h"
#include "core/tiered_index.h"
#include "seqdb/sequence_database.h"

namespace tswarp {
namespace {

using core::IndexKind;
using core::Match;
using core::TieredIndex;
using core::TieredOptions;

seqdb::Sequence RandomSeq(Rng* rng, std::size_t n) {
  seqdb::Sequence v;
  v.reserve(n);
  Value x = rng->Uniform(-10, 10);
  for (std::size_t i = 0; i < n; ++i) {
    x += rng->Gaussian(0, 1);
    v.push_back(x);
  }
  return v;
}

seqdb::SequenceDatabase BaseDb(int sequences, std::uint64_t seed) {
  Rng rng(seed);
  seqdb::SequenceDatabase db;
  for (int i = 0; i < sequences; ++i) {
    db.Add(RandomSeq(&rng, static_cast<std::size_t>(rng.UniformInt(8, 20))));
  }
  return db;
}

TEST(StreamingStressTest, AppendAndMergeWhileSearching) {
  constexpr int kAppends = 48;
  constexpr int kSearchers = 3;
  const seqdb::SequenceDatabase db = BaseDb(8, 101);

  TieredOptions options;
  options.index.kind = IndexKind::kCategorized;
  options.index.num_categories = 8;
  options.memtable_max_sequences = 2;
  options.max_sealed_tiers = 2;
  options.merge_in_background = true;
  auto tiered = TieredIndex::Create(&db, options);
  ASSERT_TRUE(tiered.ok()) << tiered.status().ToString();

  Rng qrng(202);
  const std::vector<Value> q = RandomSeq(&qrng, 6);

  std::atomic<bool> done{false};
  std::atomic<int> searches{0};
  // The appender waits until every searcher has run one search, so the
  // appends always race searches: otherwise all 48 can finish before any
  // searcher is scheduled.
  std::latch searching(kSearchers);
  std::vector<std::thread> searchers;
  for (int s = 0; s < kSearchers; ++s) {
    searchers.emplace_back([&, s] {
      // Counts down after the first search, or when a failed assertion
      // returns early, so the appender never waits for a searcher that
      // has stopped.
      struct Arrival {
        std::latch* latch;
        bool arrived = false;
        void Arrive() {
          if (!arrived) latch->count_down();
          arrived = true;
        }
        ~Arrival() { Arrive(); }
      } arrival{&searching};
      std::size_t last_total = 0;
      core::QueryOptions qo;
      qo.num_threads = static_cast<std::size_t>(s);  // Serial and parallel.
      while (!done.load(std::memory_order_relaxed)) {
        const auto snapshot = (*tiered)->Snapshot();
        // Published sequence counts only ever grow.
        ASSERT_GE(snapshot->total_sequences(), last_total);
        last_total = snapshot->total_sequences();
        const std::vector<Match> matches = snapshot->Search(q, 4.0, qo);
        for (const Match& m : matches) {
          ASSERT_LT(m.seq, snapshot->total_sequences());
        }
        snapshot->SearchKnn(q, 5, qo);
        searches.fetch_add(1, std::memory_order_relaxed);
        arrival.Arrive();
      }
    });
  }

  searching.wait();
  Rng arng(303);
  for (int i = 0; i < kAppends; ++i) {
    auto id = (*tiered)->Append(RandomSeq(&arng, 12));
    ASSERT_TRUE(id.ok());
    ASSERT_EQ(*id, db.size() + static_cast<SeqId>(i));
  }
  (*tiered)->WaitForMerges();
  done.store(true, std::memory_order_relaxed);
  for (std::thread& t : searchers) t.join();

  EXPECT_GT(searches.load(), 0);
  const core::TieredStats stats = (*tiered)->Stats();
  EXPECT_EQ(stats.appended_sequences, static_cast<std::size_t>(kAppends));
  EXPECT_EQ((*tiered)->Snapshot()->total_sequences(), db.size() + kAppends);
  EXPECT_GE(stats.merges_completed, 1u);
}

TEST(StreamingStressTest, ContinuousDeliveryExactlyOnceUnderLoad) {
  constexpr int kAppends = 40;
  const seqdb::SequenceDatabase db = BaseDb(6, 404);

  TieredOptions options;
  options.index.kind = IndexKind::kSparse;
  options.index.num_categories = 8;
  options.memtable_max_sequences = 2;
  options.max_sealed_tiers = 1;
  options.merge_in_background = true;
  auto tiered = TieredIndex::Create(&db, options);
  ASSERT_TRUE(tiered.ok());

  Rng qrng(505);
  const std::vector<Value> q = RandomSeq(&qrng, 5);
  const Value eps = 6.0;

  std::set<std::tuple<SeqId, Pos, Pos>> seen;
  bool duplicate = false;
  std::uint64_t dropped = 0;
  const std::uint64_t qid = (*tiered)->RegisterContinuous(q, eps);
  const auto poll = [&] {
    StatusOr<core::ContinuousPoll> drained = (*tiered)->PollContinuous(qid);
    ASSERT_TRUE(drained.ok()) << drained.status().ToString();
    dropped = drained->dropped;
    for (const Match& m : drained->matches) {
      if (!seen.insert({m.seq, m.start, m.len}).second) duplicate = true;
    }
  };

  // Searchers hammer snapshots and a poller drains the buffer while
  // appends fill it and the merge worker compacts the sealed tiers its
  // matches came from — deliveries must still be exactly-once.
  std::atomic<bool> done{false};
  std::thread searcher([&] {
    while (!done.load(std::memory_order_relaxed)) {
      (*tiered)->Snapshot()->Search(q, eps);
    }
  });
  std::thread poller([&] {
    while (!done.load(std::memory_order_relaxed)) poll();
  });

  Rng arng(606);
  for (int i = 0; i < kAppends; ++i) {
    ASSERT_TRUE((*tiered)->Append(RandomSeq(&arng, 14)).ok());
  }
  (*tiered)->WaitForMerges();
  done.store(true, std::memory_order_relaxed);
  searcher.join();
  poller.join();
  poll();

  EXPECT_EQ(dropped, 0u);
  EXPECT_FALSE(duplicate) << "continuous match delivered twice";
  // Ground truth: everything a search now finds in appended sequences was
  // delivered, and nothing else was.
  const std::vector<Match> full = (*tiered)->Snapshot()->Search(q, eps);
  std::set<std::tuple<SeqId, Pos, Pos>> expected;
  for (const Match& m : full) {
    if (m.seq >= db.size()) expected.insert({m.seq, m.start, m.len});
  }
  EXPECT_EQ(expected, seen);
}

TEST(StreamingStressTest, SnapshotOutlivesMergedAwayTiers) {
  // Pin snapshots across compactions, then search them after their tiers
  // were merged away — use-after-free of retired tiers is the TSan/ASan
  // target here.
  const seqdb::SequenceDatabase db = BaseDb(5, 707);
  TieredOptions options;
  options.index.kind = IndexKind::kCategorized;
  options.index.num_categories = 8;
  options.memtable_max_sequences = 1;
  options.max_sealed_tiers = 1;
  options.merge_in_background = false;
  auto tiered = TieredIndex::Create(&db, options);
  ASSERT_TRUE(tiered.ok());

  Rng rng(808);
  const std::vector<Value> q = RandomSeq(&rng, 6);
  std::vector<std::shared_ptr<const core::IndexSnapshot>> pinned;
  std::vector<std::vector<Match>> pinned_matches;
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE((*tiered)->Append(RandomSeq(&rng, 12)).ok());
    pinned.push_back((*tiered)->Snapshot());
    pinned_matches.push_back(pinned.back()->Search(q, 4.0));
  }
  // Every pinned snapshot still answers identically, even though the
  // current stack has compacted its tiers away.
  for (std::size_t i = 0; i < pinned.size(); ++i) {
    const std::vector<Match> again = pinned[i]->Search(q, 4.0);
    ASSERT_EQ(again.size(), pinned_matches[i].size()) << "snapshot " << i;
    for (std::size_t j = 0; j < again.size(); ++j) {
      ASSERT_EQ(again[j].seq, pinned_matches[i][j].seq);
      ASSERT_EQ(again[j].distance, pinned_matches[i][j].distance);
    }
  }
}

}  // namespace
}  // namespace tswarp
