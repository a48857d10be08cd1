// Persistence of disk-backed indexes: Build writes a fingerprint next to
// the tree bundle; Open re-derives the categorizer deterministically and
// reuses the bundle, returning identical answers without rebuilding.

#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

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

std::string ReadFile(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// The fixture under tests/data/legacy_sums and the options its README
/// says built it (`tswarp_cli build --kind sstc --categories 10`).
const std::filesystem::path kLegacyFixture =
    std::filesystem::path(TSWARP_TEST_DATA_DIR) / "legacy_sums";

IndexOptions LegacyFixtureOptions(const std::filesystem::path& base) {
  IndexOptions options;
  options.kind = IndexKind::kSparse;
  options.num_categories = 10;
  options.disk_path = base.string();
  return options;
}

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

TEST_F(IndexPersistenceTest, BuildFailsWhenTheFingerprintCannotBeWritten) {
  // Every byte written to /dev/full fails with ENOSPC: a Build that could
  // not persist its fingerprint must say so instead of reporting OK.
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  const IndexOptions options = DiskOptions("full");
  std::filesystem::create_symlink("/dev/full", options.disk_path + ".index");
  auto built = Index::Build(&db_, options);
  ASSERT_FALSE(built.ok());
  EXPECT_EQ(built.status().code(), StatusCode::kIOError) << built.status();
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

// Same shape, different values: the fingerprint's sequence and element
// counts agree, so only its content hash can tell. Opening the bundle
// would search one database's tree against another's values and miss
// answers without a word.
TEST_F(IndexPersistenceTest, OpenRejectsSameShapeWithDifferentValues) {
  const IndexOptions options = DiskOptions("d");
  ASSERT_TRUE(Index::Build(&db_, options).ok());
  datagen::RandomWalkOptions data;
  data.num_sequences = 12;
  data.avg_length = 40;
  data.seed = 405;
  const seqdb::SequenceDatabase other = datagen::GenerateRandomWalks(data);
  ASSERT_EQ(other.size(), db_.size());
  ASSERT_EQ(other.TotalElements(), db_.TotalElements());
  auto reopened = Index::Open(&other, options);
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(reopened.status().message().find("different database"),
            std::string::npos)
      << reopened.status();

  // One flipped value bit is enough.
  seqdb::SequenceDatabase nudged;
  for (SeqId id = 0; id < db_.size(); ++id) {
    seqdb::Sequence seq = db_.sequence(id);
    if (id == db_.size() - 1) seq.back() = std::nextafter(seq.back(), 1e9);
    nudged.Add(std::move(seq));
  }
  EXPECT_EQ(Index::Open(&nudged, options).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_TRUE(Index::Open(&db_, options).ok());
}

// A bundle written while builds still attached node summaries: format v2,
// with a 4-entry section table announcing `walk.sums` (see
// tests/data/legacy_sums). This build reads format v3 only, so Open must
// refuse it with a Corruption that says to rebuild; a rebuild at the same
// base replaces every file of it, `.sums` included, and answers exactly
// like SeqScan.
TEST_F(IndexPersistenceTest,
       LegacyBundleIsRefusedAndRebuildAnswersLikeSeqScan) {
  for (const char* ext :
       {".meta", ".nodes", ".occs", ".labels", ".sums", ".index"}) {
    std::filesystem::copy_file(kLegacyFixture / (std::string("walk") + ext),
                               dir_ / (std::string("walk") + ext));
  }
  auto db =
      seqdb::SequenceDatabase::Load((kLegacyFixture / "walk.tsdb").string());
  ASSERT_TRUE(db.ok()) << db.status();
  const IndexOptions options = LegacyFixtureOptions(dir_ / "walk");

  auto refused = Index::Open(&*db, options);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kCorruption)
      << refused.status();
  EXPECT_NE(refused.status().message().find("rebuild"), std::string::npos)
      << refused.status();

  ASSERT_TRUE(Index::Build(&*db, options).ok());
  EXPECT_FALSE(std::filesystem::exists(dir_ / "walk.sums"));
  auto index = Index::Open(&*db, options);
  ASSERT_TRUE(index.ok()) << index.status();
  std::uintmax_t regions = 0;
  for (const char* ext : {".nodes", ".occs", ".labels"}) {
    regions += std::filesystem::file_size(dir_ / (std::string("walk") + ext));
  }
  EXPECT_EQ(index->MappedStats().mapped_bytes, regions);
  std::size_t answers = 0;
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
    ASSERT_EQ(want.size(), got.size()) << "query " << qi;
    for (std::size_t m = 0; m < want.size(); ++m) {
      EXPECT_TRUE(want[m] == got[m] &&
                  std::memcmp(&want[m].distance, &got[m].distance,
                              sizeof(Value)) == 0)
          << "query " << qi << " match " << m;
    }
    answers += got.size();
  }
  EXPECT_GT(answers, 0u) << "the fixture queries should find answers";

  // A `.sums` file left next to a bundle goes with it, and so does one
  // left by the crash of an aborted tier merge.
  std::ofstream(dir_ / "walk.sums") << "stale";
  suffixtree::RemoveDiskTree(options.disk_path);
  EXPECT_FALSE(std::filesystem::exists(dir_ / "walk.sums"));
  EXPECT_FALSE(std::filesystem::exists(dir_ / "walk.meta"));
  const std::filesystem::path orphan = dir_ / "walk.tmp-merge-3.sums";
  std::ofstream(orphan) << "stale";
  CleanupOrphanedMergeFiles(options.disk_path);
  EXPECT_FALSE(std::filesystem::exists(orphan));
}

// Writer pin: the fixture's record regions were written by an older
// writer, which patched records in place through a page cache. Rebuilding
// its database with the same options must reproduce them byte for byte,
// up to each section's byte_length (the old writer zero-padded every
// region file to a whole page). Its `.nodes` is format v2, 32-byte
// records whose label_offset is a u64; the rebuilt format v3 records are
// the same bytes without that u64's high word (bytes 4-7), always zero.
TEST_F(IndexPersistenceTest, RebuildReproducesLegacyFixtureRegions) {
  auto db =
      seqdb::SequenceDatabase::Load((kLegacyFixture / "walk.tsdb").string());
  ASSERT_TRUE(db.ok()) << db.status();
  const IndexOptions options = LegacyFixtureOptions(dir_ / "walk");
  ASSERT_TRUE(Index::Build(&*db, options).ok());

  // Section entry i starts at byte 48 of the meta page (a 40-byte header,
  // then section_count and record_alignment); byte_length is its last
  // u64.
  const std::string meta = ReadFile(kLegacyFixture / "walk.meta");
  const char* exts[] = {".nodes", ".occs", ".labels"};
  for (std::size_t i = 0; i < 3; ++i) {
    std::uint64_t byte_length = 0;
    ASSERT_GE(meta.size(), 48 + 24 * (i + 1));
    std::memcpy(&byte_length, meta.data() + 48 + 24 * i + 16,
                sizeof(byte_length));
    EXPECT_GT(byte_length, 0u) << exts[i];
    const std::string want =
        ReadFile(kLegacyFixture / (std::string("walk") + exts[i]));
    const std::string got = ReadFile(dir_ / (std::string("walk") + exts[i]));
    ASSERT_GE(want.size(), byte_length) << exts[i];
    if (i == 0) {
      ASSERT_EQ(byte_length % 32, 0u);
      std::string v3;
      for (std::size_t r = 0; r < byte_length; r += 32) {
        EXPECT_EQ(want.compare(r + 4, 4, std::string(4, '\0')), 0)
            << "high label_offset word of node " << r / 32;
        v3.append(want, r, 4);
        v3.append(want, r + 8, 24);
      }
      EXPECT_TRUE(got == v3) << ".nodes differs from the fixture's records";
      continue;
    }
    ASSERT_GE(got.size(), byte_length) << exts[i];
    EXPECT_TRUE(want.compare(0, byte_length, got, 0, byte_length) == 0)
        << exts[i] << " differs from the fixture";
  }
}

}  // namespace
}  // namespace tswarp::core
