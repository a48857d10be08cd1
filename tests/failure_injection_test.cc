// Failure injection: corrupted / truncated disk bundles and fingerprints
// must surface as clean Status errors, never as wrong answers or crashes.

#include <filesystem>
#include <cstring>
#include <fstream>

#include <gtest/gtest.h>

#include "core/index.h"
#include "datagen/generators.h"
#include "storage/mmap_file.h"
#include "suffixtree/disk_tree.h"
#include "suffixtree/suffix_tree.h"

namespace tswarp {
namespace {

class FailureInjectionTest : public testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("tswarp_inject_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Path(const std::string& name) { return (dir_ / name).string(); }

  void WriteBundle(const std::string& base) {
    suffixtree::SymbolDatabase db;
    db.Add({1, 2, 1, 2, 3, 1});
    db.Add({2, 3, 2, 1});
    const suffixtree::SuffixTree tree = suffixtree::BuildSuffixTree(db);
    ASSERT_TRUE(suffixtree::WriteTreeToDisk(tree, base).ok());
  }

  static void CorruptFile(const std::string& path, std::size_t offset,
                          const char* junk) {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good()) << path;
    f.seekp(static_cast<std::streamoff>(offset));
    f.write(junk, static_cast<std::streamsize>(std::strlen(junk)));
  }

  std::filesystem::path dir_;
};

TEST_F(FailureInjectionTest, CorruptMetaMagicRejected) {
  WriteBundle(Path("t"));
  CorruptFile(Path("t") + ".meta", 0, "XXXXXXXX");
  auto tree = suffixtree::DiskSuffixTree::Open(Path("t"));
  ASSERT_FALSE(tree.ok());
  EXPECT_EQ(tree.status().code(), StatusCode::kCorruption);
}

TEST_F(FailureInjectionTest, MissingRegionFileRejected) {
  WriteBundle(Path("t"));
  std::filesystem::remove(Path("t") + ".labels");
  auto tree = suffixtree::DiskSuffixTree::Open(Path("t"));
  ASSERT_FALSE(tree.ok());
  EXPECT_EQ(tree.status().code(), StatusCode::kIOError);
}

TEST_F(FailureInjectionTest, UnfinalizedMetaRejected) {
  WriteBundle(Path("t"));
  // Byte 12 is the `finalized` field (magic u64 + version u32).
  const char zero[1] = {0};
  std::fstream f(Path("t") + ".meta",
                 std::ios::in | std::ios::out | std::ios::binary);
  f.seekp(12);
  f.write(zero, 1);
  f.close();
  auto tree = suffixtree::DiskSuffixTree::Open(Path("t"));
  ASSERT_FALSE(tree.ok());
  EXPECT_EQ(tree.status().code(), StatusCode::kCorruption);
}

TEST_F(FailureInjectionTest, GarbageFingerprintRejected) {
  datagen::RandomWalkOptions data;
  data.num_sequences = 4;
  data.avg_length = 20;
  const seqdb::SequenceDatabase db = datagen::GenerateRandomWalks(data);
  core::IndexOptions options;
  options.kind = core::IndexKind::kSparse;
  options.num_categories = 4;
  options.disk_path = Path("idx");
  ASSERT_TRUE(core::Index::Build(&db, options).ok());
  CorruptFile(Path("idx") + ".index", 0, "garbage!");
  auto reopened = core::Index::Open(&db, options);
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kCorruption);
}

TEST_F(FailureInjectionTest, EmptySymbolDatabaseBuildFails) {
  suffixtree::SymbolDatabase empty;
  auto tree = suffixtree::BuildDiskTree(empty, Path("e"));
  EXPECT_FALSE(tree.ok());
}

// --- mmap read path: every malformed bundle is refused at Open with a
// clean Corruption status — the mapping validates section extents up
// front, so no query ever dereferences past EOF (no SIGBUS).

suffixtree::DiskTreeOptions MmapOptions() {
  suffixtree::DiskTreeOptions options;
  options.io_mode = storage::IoMode::kMmap;
  return options;
}

TEST_F(FailureInjectionTest, TruncatedNodesRejectedUnderMmap) {
  WriteBundle(Path("t"));
  // 40 bytes holds one 32-byte node record at most; the bundle has more.
  std::filesystem::resize_file(Path("t") + ".nodes", 40);
  auto tree = suffixtree::DiskSuffixTree::Open(Path("t"), MmapOptions());
  ASSERT_FALSE(tree.ok());
  EXPECT_EQ(tree.status().code(), StatusCode::kCorruption);
}

TEST_F(FailureInjectionTest, TruncatedOccsRejectedUnderMmap) {
  WriteBundle(Path("t"));
  std::filesystem::resize_file(Path("t") + ".occs", 8);
  auto tree = suffixtree::DiskSuffixTree::Open(Path("t"), MmapOptions());
  ASSERT_FALSE(tree.ok());
  EXPECT_EQ(tree.status().code(), StatusCode::kCorruption);
}

TEST_F(FailureInjectionTest, CorruptSectionTableRejected) {
  WriteBundle(Path("t"));
  // Byte 40 starts the v2 section table (section_count).
  CorruptFile(Path("t") + ".meta", 40, "XXXXXXXX");
  auto tree = suffixtree::DiskSuffixTree::Open(Path("t"), MmapOptions());
  ASSERT_FALSE(tree.ok());
  EXPECT_EQ(tree.status().code(), StatusCode::kCorruption);
}

// --- record validation: Open checks every node record's label range and
// child / sibling / occurrence ids against the counts on both read paths,
// so a corrupt record is a Corruption at Open, never a read outside the
// bundle mid-query.

template <typename T>
void PatchRecordField(const std::string& path, std::size_t offset, T value) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.good()) << path;
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(reinterpret_cast<const char*>(&value), sizeof(value));
}

constexpr std::size_t kNodeRecordBytes = 32;

TEST_F(FailureInjectionTest, OutOfRangeLabelRejectedOnBothReadPaths) {
  for (const storage::IoMode mode :
       {storage::IoMode::kBuffered, storage::IoMode::kMmap}) {
    const std::string base = Path(storage::IoModeToString(mode));
    WriteBundle(base);
    // Node 1's label_offset (u64 at byte 0 of its record) points far past
    // the text.
    PatchRecordField<std::uint64_t>(base + ".nodes", kNodeRecordBytes,
                                    std::uint64_t{1} << 40);
    suffixtree::DiskTreeOptions options;
    options.io_mode = mode;
    auto tree = suffixtree::DiskSuffixTree::Open(base, options);
    ASSERT_FALSE(tree.ok()) << storage::IoModeToString(mode);
    EXPECT_EQ(tree.status().code(), StatusCode::kCorruption);
    EXPECT_NE(tree.status().message().find("label"), std::string::npos)
        << tree.status();
  }
}

TEST_F(FailureInjectionTest, LabelRunningPastTheTextRejected) {
  for (const storage::IoMode mode :
       {storage::IoMode::kBuffered, storage::IoMode::kMmap}) {
    const std::string base = Path(storage::IoModeToString(mode));
    WriteBundle(base);
    // In-range offset, but label_len (u32 at byte 8) runs off the end.
    PatchRecordField<std::uint32_t>(base + ".nodes", kNodeRecordBytes + 8,
                                    1000);
    suffixtree::DiskTreeOptions options;
    options.io_mode = mode;
    auto tree = suffixtree::DiskSuffixTree::Open(base, options);
    ASSERT_FALSE(tree.ok()) << storage::IoModeToString(mode);
    EXPECT_EQ(tree.status().code(), StatusCode::kCorruption);
  }
}

TEST_F(FailureInjectionTest, EmptyNonRootLabelAtTextEndRejected) {
  for (const storage::IoMode mode :
       {storage::IoMode::kBuffered, storage::IoMode::kMmap}) {
    const std::string base = Path(storage::IoModeToString(mode));
    WriteBundle(base);
    suffixtree::DiskTreeOptions options;
    options.io_mode = mode;
    std::uint64_t text_size = 0;
    {
      auto intact = suffixtree::DiskSuffixTree::Open(base, options);
      ASSERT_TRUE(intact.ok()) << intact.status();
      text_size = (*intact)->Text().size();
    }
    // Node 1's label becomes [text end, +0): inside the text by range,
    // but a search would read its first symbol one past the end.
    PatchRecordField<std::uint64_t>(base + ".nodes", kNodeRecordBytes,
                                    text_size);
    PatchRecordField<std::uint32_t>(base + ".nodes", kNodeRecordBytes + 8, 0);
    auto tree = suffixtree::DiskSuffixTree::Open(base, options);
    ASSERT_FALSE(tree.ok()) << storage::IoModeToString(mode);
    EXPECT_EQ(tree.status().code(), StatusCode::kCorruption);
    EXPECT_NE(tree.status().message().find("label length"), std::string::npos)
        << tree.status();
  }
}

TEST_F(FailureInjectionTest, OutOfRangeChildIdRejectedOnBothReadPaths) {
  for (const storage::IoMode mode :
       {storage::IoMode::kBuffered, storage::IoMode::kMmap}) {
    const std::string base = Path(storage::IoModeToString(mode));
    WriteBundle(base);
    // The root's first_child (u32 at byte 12) names a node that does not
    // exist.
    PatchRecordField<std::uint32_t>(base + ".nodes", 12, 0x7FFFFFFFu);
    suffixtree::DiskTreeOptions options;
    options.io_mode = mode;
    auto tree = suffixtree::DiskSuffixTree::Open(base, options);
    ASSERT_FALSE(tree.ok()) << storage::IoModeToString(mode);
    EXPECT_EQ(tree.status().code(), StatusCode::kCorruption);
    EXPECT_NE(tree.status().message().find("child"), std::string::npos)
        << tree.status();
  }
}

TEST_F(FailureInjectionTest, OutOfRangeOccurrenceIdRejected) {
  for (const storage::IoMode mode :
       {storage::IoMode::kBuffered, storage::IoMode::kMmap}) {
    const std::string base = Path(storage::IoModeToString(mode));
    WriteBundle(base);
    // Occurrence 0's `next` (u32 at byte 12 of its 16-byte record).
    PatchRecordField<std::uint32_t>(base + ".occs", 12, 0x12345678u);
    suffixtree::DiskTreeOptions options;
    options.io_mode = mode;
    auto tree = suffixtree::DiskSuffixTree::Open(base, options);
    ASSERT_FALSE(tree.ok()) << storage::IoModeToString(mode);
    EXPECT_EQ(tree.status().code(), StatusCode::kCorruption);
  }
}

TEST_F(FailureInjectionTest, V1BundleRejectedByMmapOpensBuffered) {
  WriteBundle(Path("t"));
  ASSERT_TRUE(suffixtree::DowngradeBundleToV1ForTest(Path("t")).ok());
  // The mmap path needs the v2 section table; v1 gets a clean refusal...
  auto mapped = suffixtree::DiskSuffixTree::Open(Path("t"), MmapOptions());
  ASSERT_FALSE(mapped.ok());
  EXPECT_EQ(mapped.status().code(), StatusCode::kCorruption);
  // ...while the buffered path still serves the old format.
  auto buffered = suffixtree::DiskSuffixTree::Open(Path("t"));
  ASSERT_TRUE(buffered.ok()) << buffered.status().ToString();
  EXPECT_EQ((*buffered)->format_version(), 1u);
}

TEST_F(FailureInjectionTest, WriterFailsCleanlyWithoutParentDir) {
  // The writer's durable-publish path (create, write, fsync files, fsync
  // the containing directory) must surface a missing directory as a
  // Status, not a crash — the same error path a failed directory fsync
  // takes after a merge rename.
  suffixtree::SymbolDatabase db;
  db.Add({1, 2, 1, 2, 3, 1});
  const suffixtree::SuffixTree tree = suffixtree::BuildSuffixTree(db);
  const std::string base = Path("no_such_subdir") + "/t";
  auto written = suffixtree::WriteTreeToDisk(tree, base);
  EXPECT_FALSE(written.ok());
}

TEST_F(FailureInjectionTest, PublishedBundleLeavesNoTempFiles) {
  // After a build that goes through the tmp-write + rename + dir-fsync
  // publish protocol, only the final bundle names remain and the result
  // reopens on the mmap path.
  datagen::RandomWalkOptions data;
  data.num_sequences = 6;
  data.avg_length = 24;
  const seqdb::SequenceDatabase db = datagen::GenerateRandomWalks(data);
  core::IndexOptions options;
  options.kind = core::IndexKind::kSparse;
  options.num_categories = 4;
  options.disk_path = Path("pub");
  options.disk_batch_sequences = 2;  // Force spill + merge intermediates.
  options.disk_io_mode = storage::IoMode::kMmap;
  auto index = core::Index::Build(&db, options);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    EXPECT_EQ(entry.path().filename().string().find("tmp"),
              std::string::npos)
        << "leftover temp file: " << entry.path();
  }
  auto reopened = core::Index::Open(&db, options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_GT(reopened->MappedStats().mapped_bytes, 0u);
}

}  // namespace
}  // namespace tswarp
