// TieredIndex unit and integration tests: append/seal/merge lifecycle,
// snapshot immutability, continuous-query exactly-once delivery, disk
// merges that leave no file behind however the process ends, and the
// frozen-symbolization contract that makes tiered search results
// byte-identical to a monolithic rebuild (the full differential sweep
// lives in differential_test.cc).

#include "core/tiered_index.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/index.h"
#include "seqdb/sequence_database.h"
#include "test_util.h"

namespace tswarp {
namespace {

using core::Index;
using core::IndexKind;
using core::IndexOptions;
using core::Match;
using core::TieredIndex;
using core::TieredOptions;
using core::TieredStats;

// PR 8 satellite: the only sanctioned index-swap paths are IndexHandle
// and TieredIndex — a raw `index = std::move(other)` (the PR 7 torn-swap
// hazard) must not compile.
static_assert(!std::is_move_assignable_v<Index>,
              "Index move-assignment must stay deleted");
static_assert(std::is_move_constructible_v<Index>,
              "Index stays movable for StatusOr and factories");
static_assert(!std::is_copy_constructible_v<Index>);

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

seqdb::SequenceDatabase BaseDb(int sequences = 6, std::uint64_t seed = 1) {
  Rng rng(seed);
  seqdb::SequenceDatabase db;
  for (int i = 0; i < sequences; ++i) {
    db.Add(RandomSeq(&rng, static_cast<std::size_t>(rng.UniformInt(8, 24))));
  }
  return db;
}

TieredOptions Opts(IndexKind kind, std::size_t memtable_max,
                   std::size_t max_sealed, bool background = false) {
  TieredOptions options;
  options.index.kind = kind;
  options.index.num_categories = 8;
  options.memtable_max_sequences = memtable_max;
  options.max_sealed_tiers = max_sealed;
  options.merge_in_background = background;
  return options;
}

void ExpectSameMatches(const std::vector<Match>& expected,
                       const std::vector<Match>& actual,
                       const std::string& context) {
  ASSERT_EQ(expected.size(), actual.size()) << context;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i].seq, actual[i].seq) << context << " at " << i;
    EXPECT_EQ(expected[i].start, actual[i].start) << context << " at " << i;
    EXPECT_EQ(expected[i].len, actual[i].len) << context << " at " << i;
    EXPECT_EQ(expected[i].distance, actual[i].distance)
        << context << " at " << i;
  }
}

TEST(TieredIndexTest, AppendAssignsSequentialGlobalIds) {
  const seqdb::SequenceDatabase db = BaseDb(5);
  auto tiered = TieredIndex::Create(&db, Opts(IndexKind::kSparse, 4, 2));
  ASSERT_TRUE(tiered.ok()) << tiered.status().ToString();
  Rng rng(11);
  for (SeqId i = 0; i < 3; ++i) {
    auto id = (*tiered)->Append(RandomSeq(&rng, 12));
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    EXPECT_EQ(*id, db.size() + i);
  }
  const TieredStats stats = (*tiered)->Stats();
  EXPECT_EQ(stats.appended_sequences, 3u);
  EXPECT_EQ((*tiered)->Snapshot()->total_sequences(), db.size() + 3);
}

TEST(TieredIndexTest, AppendRejectsEmptySequence) {
  const seqdb::SequenceDatabase db = BaseDb(3);
  auto tiered = TieredIndex::Create(&db, Opts(IndexKind::kCategorized, 4, 2));
  ASSERT_TRUE(tiered.ok());
  EXPECT_FALSE((*tiered)->Append({}).ok());
}

TEST(TieredIndexTest, AppendedSequenceIsImmediatelySearchable) {
  for (const IndexKind kind : {IndexKind::kSuffixTree,
                               IndexKind::kCategorized, IndexKind::kSparse}) {
    const seqdb::SequenceDatabase db = BaseDb(4);
    auto tiered = TieredIndex::Create(&db, Opts(kind, 4, 2));
    ASSERT_TRUE(tiered.ok()) << tiered.status().ToString();

    Rng rng(17);
    const seqdb::Sequence fresh = RandomSeq(&rng, 16);
    const std::vector<Value> probe(fresh.begin() + 4, fresh.begin() + 10);
    auto id = (*tiered)->Append(fresh);
    ASSERT_TRUE(id.ok());

    const std::vector<Match> matches =
        (*tiered)->Snapshot()->Search(probe, 0.01);
    const bool hit = std::any_of(matches.begin(), matches.end(),
                                 [&](const Match& m) { return m.seq == *id; });
    EXPECT_TRUE(hit) << "kind=" << core::IndexKindToString(kind)
                     << ": appended sequence not found";
  }
}

TEST(TieredIndexTest, EveryTierStoresItsTextOnce) {
  // Memtable appends, seals and merges carry label references through, so
  // each tier's only label storage is its text: one symbol per element,
  // the tier's sequences in order.
  const seqdb::SequenceDatabase db = BaseDb(4);
  auto tiered = TieredIndex::Create(&db, Opts(IndexKind::kCategorized, 2, 1));
  ASSERT_TRUE(tiered.ok());
  Rng rng(29);
  for (int i = 0; i < 7; ++i) {
    ASSERT_TRUE((*tiered)->Append(RandomSeq(&rng, 10 + i)).ok());
  }
  const auto snapshot = (*tiered)->Snapshot();
  ASSERT_EQ(snapshot->tiers().size(), 3u);  // Base, merged sealed, memtable.
  for (const auto& tier : snapshot->tiers()) {
    EXPECT_EQ(tier->view()->NumLabelSymbols(), tier->info.elements);
    EXPECT_EQ(tier->info.index_bytes, tier->view()->SizeBytes());
    EXPECT_GE(tier->info.table1_bytes, tier->info.index_bytes);
  }
  // The merged tier's text is its older tier's text followed by the
  // newer one's: symbolizing its sequences in order reproduces it.
  const core::Tier& merged = *snapshot->tiers()[1];
  ASSERT_EQ(merged.info.sequences, 6u);
  std::vector<Symbol> expected;
  for (SeqId id = 0; id < merged.db->size(); ++id) {
    for (const Value v : merged.db->sequence(id)) {
      expected.push_back(merged.alphabet->ToSymbol(v));
    }
  }
  EXPECT_TRUE(std::ranges::equal(merged.view()->Text(), expected));
  EXPECT_TRUE((*tiered)->merge_status().ok());
}

TEST(TieredIndexTest, MemtableSealsAtThresholdAndMergesBoundSealedTiers) {
  const seqdb::SequenceDatabase db = BaseDb(4);
  auto tiered = TieredIndex::Create(&db, Opts(IndexKind::kCategorized, 2, 1));
  ASSERT_TRUE(tiered.ok());
  Rng rng(23);

  ASSERT_TRUE((*tiered)->Append(RandomSeq(&rng, 10)).ok());
  TieredStats stats = (*tiered)->Stats();
  EXPECT_EQ(stats.memtable_sequences, 1u);
  EXPECT_EQ(stats.sealed_tiers, 0u);

  // Second append hits memtable_max_sequences: the tier is created sealed.
  ASSERT_TRUE((*tiered)->Append(RandomSeq(&rng, 10)).ok());
  stats = (*tiered)->Stats();
  EXPECT_EQ(stats.memtable_sequences, 0u);
  EXPECT_EQ(stats.sealed_tiers, 1u);
  EXPECT_EQ(stats.merges_completed, 0u);

  // Two more appends seal a second tier; inline compaction folds the pair
  // back under the max_sealed_tiers=1 budget.
  ASSERT_TRUE((*tiered)->Append(RandomSeq(&rng, 10)).ok());
  ASSERT_TRUE((*tiered)->Append(RandomSeq(&rng, 10)).ok());
  stats = (*tiered)->Stats();
  EXPECT_EQ(stats.sealed_tiers, 1u);
  EXPECT_EQ(stats.merges_completed, 1u);
  EXPECT_EQ(stats.pending_merges, 0u);
  // base + one merged sealed tier.
  EXPECT_EQ(stats.tiers.size(), 2u);
  EXPECT_EQ(stats.tiers[1].sequences, 4u);
  EXPECT_EQ(stats.tiers[1].first_seq, db.size());
  EXPECT_FALSE(stats.tiers[1].memtable);
}

TEST(TieredIndexTest, SnapshotsAreImmutableAcrossAppendsAndMerges) {
  const seqdb::SequenceDatabase db = BaseDb(5);
  auto tiered = TieredIndex::Create(&db, Opts(IndexKind::kSparse, 1, 1));
  ASSERT_TRUE(tiered.ok());
  Rng rng(31);
  const std::vector<Value> q = RandomSeq(&rng, 6);

  const auto before = (*tiered)->Snapshot();
  const std::size_t before_sequences = before->total_sequences();
  const std::vector<Match> before_matches = before->Search(q, 5.0);

  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE((*tiered)->Append(RandomSeq(&rng, 12)).ok());
  }
  (*tiered)->WaitForMerges();

  // The old snapshot still answers from its own (pinned) tiers.
  EXPECT_EQ(before->total_sequences(), before_sequences);
  ExpectSameMatches(before_matches, before->Search(q, 5.0),
                    "pre-append snapshot drifted");
  EXPECT_EQ((*tiered)->Snapshot()->total_sequences(), before_sequences + 5);
}

TEST(TieredIndexTest, SearchSpansBaseSealedAndMemtableTiers) {
  // Append the base sequences verbatim: every base match must reappear,
  // rebased to the appended global ids, in the same search.
  const seqdb::SequenceDatabase db = BaseDb(3);
  auto tiered = TieredIndex::Create(&db, Opts(IndexKind::kCategorized, 2, 2));
  ASSERT_TRUE(tiered.ok());
  for (SeqId id = 0; id < db.size(); ++id) {
    const auto span = db.sequence(id);
    ASSERT_TRUE(
        (*tiered)->Append(seqdb::Sequence(span.begin(), span.end())).ok());
  }

  const auto base_span = db.sequence(1);
  const std::vector<Value> q(base_span.begin(), base_span.begin() + 6);
  const std::vector<Match> matches = (*tiered)->Snapshot()->Search(q, 0.01);
  std::set<SeqId> seqs;
  for (const Match& m : matches) seqs.insert(m.seq);
  EXPECT_TRUE(seqs.count(1)) << "base tier match missing";
  EXPECT_TRUE(seqs.count(db.size() + 1)) << "appended tier match missing";
}

TEST(TieredIndexTest, ContinuousQueryDeliversEveryMatchExactlyOnce) {
  const seqdb::SequenceDatabase db = BaseDb(4);
  auto tiered = TieredIndex::Create(&db, Opts(IndexKind::kCategorized, 2, 1));
  ASSERT_TRUE(tiered.ok());
  Rng rng(41);
  const std::vector<Value> q = RandomSeq(&rng, 5);
  const Value eps = 6.0;

  std::vector<Match> delivered;
  std::set<std::tuple<SeqId, Pos, Pos>> seen;
  bool duplicate = false;
  const std::uint64_t qid = (*tiered)->RegisterContinuous(q, eps);
  const auto poll = [&] {
    StatusOr<core::ContinuousPoll> drained = (*tiered)->PollContinuous(qid);
    ASSERT_TRUE(drained.ok()) << drained.status().ToString();
    EXPECT_EQ(drained->dropped, 0u);
    for (const Match& m : drained->matches) {
      if (!seen.insert({m.seq, m.start, m.len}).second) duplicate = true;
      delivered.push_back(m);
    }
    EXPECT_EQ(drained->delivered, delivered.size());
  };

  // Appends interleaved with (inline) merges and polls: compactions must
  // never re-deliver a match from a merged-away tier.
  std::vector<SeqId> appended_ids;
  for (int i = 0; i < 6; ++i) {
    auto id = (*tiered)->Append(RandomSeq(&rng, 14));
    ASSERT_TRUE(id.ok());
    appended_ids.push_back(*id);
    if (i % 2 == 1) poll();
  }
  (*tiered)->WaitForMerges();
  poll();
  EXPECT_FALSE(duplicate) << "a continuous match was delivered twice";

  // Ground truth: the matches a fresh search finds inside the appended
  // sequences are exactly the delivered set.
  const std::vector<Match> full = (*tiered)->Snapshot()->Search(q, eps);
  std::set<std::tuple<SeqId, Pos, Pos>> expected;
  for (const Match& m : full) {
    if (m.seq >= db.size()) expected.insert({m.seq, m.start, m.len});
  }
  EXPECT_EQ(expected, seen);

  ASSERT_TRUE((*tiered)->UnregisterContinuous(qid).ok());
  ASSERT_TRUE((*tiered)->Append(RandomSeq(&rng, 14)).ok());
  EXPECT_EQ(seen.size(), delivered.size());
  EXPECT_EQ((*tiered)->Stats().continuous_queries, 0u);
}

TEST(TieredIndexTest, DiskBackedMergeLeavesNoTmpFilesAndStaysSearchable) {
  namespace fs = std::filesystem;
  const std::string dir = ::testing::TempDir() + "/tiered_disk";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const seqdb::SequenceDatabase db = BaseDb(4);

  TieredOptions options = Opts(IndexKind::kCategorized, 1, 1);
  options.index.disk_path = dir + "/idx";
  options.index.disk_batch_sequences = 2;

  auto tiered = TieredIndex::Create(&db, options);
  ASSERT_TRUE(tiered.ok()) << tiered.status().ToString();

  Rng rng(53);
  std::vector<seqdb::Sequence> appended;
  for (int i = 0; i < 4; ++i) {
    appended.push_back(RandomSeq(&rng, 12));
    ASSERT_TRUE((*tiered)->Append(appended.back()).ok());
  }
  (*tiered)->WaitForMerges();
  const TieredStats stats = (*tiered)->Stats();
  EXPECT_GE(stats.merges_completed, 1u);
  // Merged appended tiers live in their own on-disk bundles.
  EXPECT_TRUE(stats.tiers.back().on_disk || stats.tiers.size() > 2);

  // The merged tier answers: probe a subsequence of the first append,
  // which by now lives only inside merged tiers.
  const std::vector<Value> probe(appended[0].begin(),
                                 appended[0].begin() + 6);
  const std::vector<Match> matches = (*tiered)->Snapshot()->Search(probe, 0.01);
  EXPECT_TRUE(std::any_of(matches.begin(), matches.end(), [&](const Match& m) {
    return m.seq == db.size();
  }));

  // Merged tiers have no file name: the directory holds the base bundle
  // alone, while the index lives and after it is dropped (the base
  // bundle persists for reopening).
  EXPECT_EQ(testutil::FileNames(dir), std::set<std::string>{"idx.tsw"});
  tiered->reset();
  EXPECT_EQ(testutil::FileNames(dir), std::set<std::string>{"idx.tsw"});
  fs::remove_all(dir);
}

/// For a forked child: creates a disk-backed TieredIndex with a merge
/// inline at every append after the first, lowers the file-size limit to
/// `limit` (KillAtWriteLimit: the base bundle is written by then), makes
/// `appends` appends and ends with _Exit, which runs no destructor.
[[noreturn]] void AppendUnderWriteLimit(const seqdb::SequenceDatabase* db,
                                        const TieredOptions& options,
                                        std::uint64_t limit, int appends) {
  auto tiered = TieredIndex::Create(db, options);
  if (!tiered.ok()) std::_Exit(2);
  testutil::KillAtWriteLimit(limit);
  Rng rng(97);
  for (int i = 0; i < appends; ++i) {
    if (!(*tiered)->Append(RandomSeq(&rng, 16)).ok()) std::_Exit(3);
  }
  std::_Exit((*tiered)->Stats().merges_failed == 0 ? 0 : 4);
}

// A disk-backed TieredIndex killed inside any merge's write, or ended
// without its destructor, leaves only the base bundle behind: appended
// data is volatile and merged tiers are unnamed files.
TEST(TieredIndexTest, KilledDiskMergesLeaveOnlyTheBaseBundle) {
  namespace fs = std::filesystem;
  const std::string dir = ::testing::TempDir() + "/tiered_crash";
  const seqdb::SequenceDatabase db = BaseDb(4);
  TieredOptions options = Opts(IndexKind::kCategorized, 1, 1);
  options.index.disk_path = dir + "/idx";
  constexpr int kAppends = 10;
  const auto fresh_dir = [&] {
    fs::remove_all(dir);
    fs::create_directories(dir);
  };
  const std::set<std::string> base_only{"idx.tsw"};

  // The same run, complete: its merges, the size of its largest merged
  // tier's file, and a clean drop.
  fresh_dir();
  std::uint64_t largest_merged = 0;
  {
    auto tiered = TieredIndex::Create(&db, options);
    ASSERT_TRUE(tiered.ok()) << tiered.status();
    Rng rng(97);
    for (int i = 0; i < kAppends; ++i) {
      ASSERT_TRUE((*tiered)->Append(RandomSeq(&rng, 16)).ok());
    }
    const TieredStats stats = (*tiered)->Stats();
    ASSERT_GE(stats.merges_completed, 5u);
    for (const core::TierInfo& tier : stats.tiers) {
      if (tier.on_disk && tier.first_seq >= db.size()) {
        largest_merged = std::max(largest_merged, tier.index_bytes);
      }
    }
  }
  EXPECT_EQ(testutil::FileNames(dir), base_only) << "after a clean drop";
  ASSERT_GT(largest_merged, 4096u);

  // Every limit below the largest merged tier kills some merge's write:
  // the header's edges, then a grid over the rest.
  std::set<std::uint64_t> limits = {0, 1, 4095, 4096, 4097};
  for (std::uint64_t limit = 4096; limit < largest_merged;
       limit += largest_merged / 16) {
    limits.insert(limit);
  }
  for (const std::uint64_t limit : limits) {
    fresh_dir();
    EXPECT_EXIT(AppendUnderWriteLimit(&db, options, limit, kAppends),
                testing::KilledBySignal(SIGXFSZ), "")
        << "write limit " << limit;
    EXPECT_EQ(testutil::FileNames(dir), base_only) << "write limit " << limit;
  }
  for (int appends = 1; appends <= kAppends; appends += 3) {
    fresh_dir();
    EXPECT_EXIT(AppendUnderWriteLimit(&db, options, RLIM_INFINITY, appends),
                testing::ExitedWithCode(0), "")
        << appends << " appends";
    EXPECT_EQ(testutil::FileNames(dir), base_only) << appends << " appends";
  }
  fs::remove_all(dir);
}

TEST(TieredIndexTest, BackgroundWorkerDrainsPendingMerges) {
  const seqdb::SequenceDatabase db = BaseDb(4);
  auto tiered = TieredIndex::Create(
      &db, Opts(IndexKind::kCategorized, 1, 1, /*background=*/true));
  ASSERT_TRUE(tiered.ok());
  Rng rng(61);
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE((*tiered)->Append(RandomSeq(&rng, 10)).ok());
  }
  (*tiered)->WaitForMerges();
  const TieredStats stats = (*tiered)->Stats();
  EXPECT_EQ(stats.pending_merges, 0u);
  EXPECT_LE(stats.sealed_tiers, 1u);
  EXPECT_GE(stats.merges_completed, 1u);
  EXPECT_EQ((*tiered)->Snapshot()->total_sequences(), db.size() + 6);
}


// Every appended sequence must stay findable, merged or not.
void ExpectAppendsSearchable(const TieredIndex& tiered, SeqId first,
                             const std::vector<seqdb::Sequence>& appended) {
  for (std::size_t i = 0; i < appended.size(); ++i) {
    const std::vector<Value> probe(appended[i].begin(),
                                   appended[i].begin() + 6);
    const std::vector<Match> matches =
        tiered.Snapshot()->Search(probe, 0.01);
    EXPECT_TRUE(std::any_of(matches.begin(), matches.end(),
                            [&](const Match& m) {
                              return m.seq == first + i;
                            }))
        << "append " << i;
  }
}

TEST(TieredIndexTest, FailedInlineDiskMergeIsReportedAndRetried) {
  namespace fs = std::filesystem;
  const std::string dir = ::testing::TempDir() + "/tiered_merge_fail";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const seqdb::SequenceDatabase db = BaseDb(4);
  TieredOptions options = Opts(IndexKind::kCategorized, 1, 1);
  options.index.disk_path = dir + "/idx";
  options.index.disk_batch_sequences = 2;
  auto tiered = TieredIndex::Create(&db, options);
  ASSERT_TRUE(tiered.ok()) << tiered.status();

  // The second append seals a second tier over a budget of one; its
  // inline merge cannot write (as on a full disk) and fails.
  Rng rng(71);
  std::vector<seqdb::Sequence> appended;
  {
    const testutil::WriteLimit full_disk(0);
    for (int i = 0; i < 2; ++i) {
      appended.push_back(RandomSeq(&rng, 12));
      ASSERT_TRUE((*tiered)->Append(appended.back()).ok());
    }
  }
  TieredStats stats = (*tiered)->Stats();
  EXPECT_EQ(stats.merges_failed, 1u);
  EXPECT_EQ(stats.merges_completed, 0u);
  EXPECT_EQ(stats.sealed_tiers, 2u);
  EXPECT_EQ(stats.pending_merges, 1u);
  EXPECT_NE(stats.merge_error.find("scratch file"), std::string::npos)
      << stats.merge_error;
  EXPECT_EQ((*tiered)->merge_status().code(), StatusCode::kIOError)
      << (*tiered)->merge_status();
  (*tiered)->WaitForMerges();  // Returns: the latest merge failed.
  ExpectAppendsSearchable(**tiered, db.size(), appended);

  // An I/O failure is not final: with room to write again, the next
  // append's merges succeed and clear the error.
  appended.push_back(RandomSeq(&rng, 12));
  ASSERT_TRUE((*tiered)->Append(appended.back()).ok());
  stats = (*tiered)->Stats();
  EXPECT_EQ(stats.merges_failed, 1u);
  EXPECT_GE(stats.merges_completed, 1u);
  EXPECT_EQ(stats.sealed_tiers, 1u);
  EXPECT_EQ(stats.pending_merges, 0u);
  EXPECT_TRUE(stats.merge_error.empty()) << stats.merge_error;
  EXPECT_TRUE((*tiered)->merge_status().ok());
  ExpectAppendsSearchable(**tiered, db.size(), appended);
  tiered->reset();
  fs::remove_all(dir);
}

TEST(TieredIndexTest, FailedBackgroundDiskMergeIsRetriedAfterBackoff) {
  namespace fs = std::filesystem;
  const std::string dir = ::testing::TempDir() + "/tiered_merge_retry";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const seqdb::SequenceDatabase db = BaseDb(4);
  TieredOptions options =
      Opts(IndexKind::kCategorized, 1, 1, /*background=*/true);
  options.index.disk_path = dir + "/idx";
  options.index.disk_batch_sequences = 2;
  auto tiered = TieredIndex::Create(&db, options);
  ASSERT_TRUE(tiered.ok()) << tiered.status();

  Rng rng(73);
  std::vector<seqdb::Sequence> appended;
  {
    // Room to write again once the merge has failed (as on a full disk):
    // the first retry, after the backoff, succeeds.
    const testutil::WriteLimit full_disk(0);
    for (int i = 0; i < 2; ++i) {
      appended.push_back(RandomSeq(&rng, 12));
      ASSERT_TRUE((*tiered)->Append(appended.back()).ok());
    }
    (*tiered)->WaitForMerges();  // Returns once the merge failed.
  }
  EXPECT_EQ((*tiered)->Stats().merges_failed, 1u);
  EXPECT_EQ((*tiered)->merge_status().code(), StatusCode::kIOError);
  ExpectAppendsSearchable(**tiered, db.size(), appended);

  // The worker retries on its own, with no further append.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while ((*tiered)->Stats().merges_completed == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  const TieredStats stats = (*tiered)->Stats();
  EXPECT_EQ(stats.merges_completed, 1u);
  EXPECT_EQ(stats.merges_failed, 1u);
  EXPECT_EQ(stats.pending_merges, 0u);
  EXPECT_TRUE(stats.merge_error.empty()) << stats.merge_error;
  EXPECT_TRUE((*tiered)->merge_status().ok());
  ExpectAppendsSearchable(**tiered, db.size(), appended);
  tiered->reset();
  fs::remove_all(dir);
}

}  // namespace
}  // namespace tswarp
