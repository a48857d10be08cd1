// Persistence of disk-backed indexes: Build writes a fingerprint next to
// the tree bundle; Open re-derives the categorizer deterministically and
// reuses the bundle, returning identical answers without rebuilding.

#include <cstring>
#include <filesystem>
#include <fstream>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/index.h"
#include "core/seq_scan.h"
#include "core/tiered_index.h"
#include "datagen/generators.h"
#include "suffixtree/disk_tree.h"
#include "test_util.h"

namespace tswarp::core {
namespace {

class IndexPersistenceTest : public testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("tswarp_persist_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
    datagen::RandomWalkOptions data;
    data.num_sequences = 12;
    data.avg_length = 40;
    data.seed = 404;
    db_ = datagen::GenerateRandomWalks(data);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  IndexOptions DiskOptions(const std::string& name) {
    IndexOptions options;
    options.kind = IndexKind::kSparse;
    options.num_categories = 10;
    options.disk_path = (dir_ / name).string();
    options.disk_batch_sequences = 4;
    return options;
  }

  std::filesystem::path dir_;
  seqdb::SequenceDatabase db_;
};

TEST_F(IndexPersistenceTest, OpenReturnsIdenticalAnswers) {
  const IndexOptions options = DiskOptions("a");
  auto built = Index::Build(&db_, options);
  ASSERT_TRUE(built.ok()) << built.status();
  auto reopened = Index::Open(&db_, options);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ(reopened->build_info().num_nodes,
            built->build_info().num_nodes);
  EXPECT_EQ(reopened->build_info().stored_suffixes,
            built->build_info().stored_suffixes);
  EXPECT_DOUBLE_EQ(reopened->build_info().compaction_ratio,
                   built->build_info().compaction_ratio);

  Rng rng(11);
  for (int qi = 0; qi < 5; ++qi) {
    std::vector<Value> q;
    Value v = rng.Uniform(20, 80);
    for (int i = 0; i < 4; ++i) {
      q.push_back(v);
      v += rng.Gaussian(0, 1);
    }
    const Value eps = rng.Uniform(0, 8);
    testutil::ExpectSameMatches(built->Search(q, eps),
                                reopened->Search(q, eps), "reopened");
    testutil::ExpectSameMatches(SeqScan(db_, q, eps),
                                reopened->Search(q, eps), "vs scan");
  }
}

TEST_F(IndexPersistenceTest, OpenRejectsMissingBundle) {
  auto reopened = Index::Open(&db_, DiskOptions("missing"));
  EXPECT_FALSE(reopened.ok());
}

TEST_F(IndexPersistenceTest, OpenRejectsMemoryOnlyOptions) {
  IndexOptions options;
  options.kind = IndexKind::kSparse;
  auto reopened = Index::Open(&db_, options);
  EXPECT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(IndexPersistenceTest, OpenRejectsChangedOptions) {
  const IndexOptions options = DiskOptions("b");
  ASSERT_TRUE(Index::Build(&db_, options).ok());
  IndexOptions changed = options;
  changed.num_categories = 20;
  auto reopened = Index::Open(&db_, changed);
  EXPECT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(IndexPersistenceTest, OpenRejectsChangedDatabase) {
  const IndexOptions options = DiskOptions("c");
  ASSERT_TRUE(Index::Build(&db_, options).ok());
  seqdb::SequenceDatabase other;
  other.Add({1, 2, 3});
  auto reopened = Index::Open(&other, options);
  EXPECT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kFailedPrecondition);
}

// A bundle written while builds still attached node summaries: a 4-entry
// section table announcing `walk.sums` (see tests/data/legacy_sums).
// Readers ignore the section, so both read paths must open it, leave
// `.sums` unmapped, and answer exactly like SeqScan.
TEST_F(IndexPersistenceTest, LegacyBundleWithSumsAnswersLikeSeqScan) {
  const std::filesystem::path fixture =
      std::filesystem::path(TSWARP_TEST_DATA_DIR) / "legacy_sums";
  for (const char* ext :
       {".meta", ".nodes", ".occs", ".labels", ".sums", ".index"}) {
    std::filesystem::copy_file(fixture / (std::string("walk") + ext),
                               dir_ / (std::string("walk") + ext));
  }
  auto db = seqdb::SequenceDatabase::Load((fixture / "walk.tsdb").string());
  ASSERT_TRUE(db.ok()) << db.status();
  // The options `tswarp_cli build --kind sstc --categories 10` used.
  IndexOptions options;
  options.kind = IndexKind::kSparse;
  options.num_categories = 10;
  options.disk_path = (dir_ / "walk").string();

  std::size_t answers = 0;
  for (const storage::IoMode io :
       {storage::IoMode::kMmap, storage::IoMode::kBuffered}) {
    options.disk_io_mode = io;
    const std::string ctx = storage::IoModeToString(io);
    auto index = Index::Open(&*db, options);
    ASSERT_TRUE(index.ok()) << ctx << ": " << index.status();
    if (io == storage::IoMode::kMmap) {
      std::uintmax_t regions = 0;
      for (const char* ext : {".nodes", ".occs", ".labels"}) {
        regions += std::filesystem::file_size(dir_ / (std::string("walk") + ext));
      }
      EXPECT_EQ(index->MappedStats().mapped_bytes, regions) << ctx;
    }
    Rng rng(15);
    for (int qi = 0; qi < 6; ++qi) {
      const SeqId seq = static_cast<SeqId>(rng.UniformInt(0, 7));
      const auto start = static_cast<std::size_t>(rng.UniformInt(0, 40));
      std::vector<Value> q(db->sequence(seq).begin() + start,
                           db->sequence(seq).begin() + start + 6);
      for (Value& v : q) v += rng.Gaussian(0, 0.5);
      const Value eps = rng.Uniform(2, 10);
      std::vector<Match> want = SeqScan(*db, q, eps);
      std::vector<Match> got = index->Search(q, eps);
      std::sort(want.begin(), want.end(), MatchLess);
      std::sort(got.begin(), got.end(), MatchLess);
      ASSERT_EQ(want.size(), got.size()) << ctx << " query " << qi;
      for (std::size_t m = 0; m < want.size(); ++m) {
        EXPECT_TRUE(want[m] == got[m] &&
                    std::memcmp(&want[m].distance, &got[m].distance,
                                sizeof(Value)) == 0)
            << ctx << " query " << qi << " match " << m;
      }
      answers += got.size();
    }
  }
  EXPECT_GT(answers, 0u) << "the fixture queries should find answers";

  // Deleting a legacy bundle takes its `.sums` along, and so does the
  // crash cleanup of an aborted tier merge.
  suffixtree::RemoveDiskTree(options.disk_path);
  EXPECT_FALSE(std::filesystem::exists(dir_ / "walk.sums"));
  EXPECT_FALSE(std::filesystem::exists(dir_ / "walk.meta"));
  const std::filesystem::path orphan = dir_ / "walk.tmp-merge-3.sums";
  std::ofstream(orphan) << "stale";
  CleanupOrphanedMergeFiles(options.disk_path);
  EXPECT_FALSE(std::filesystem::exists(orphan));
}

}  // namespace
}  // namespace tswarp::core
