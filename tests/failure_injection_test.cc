// Failure injection: corrupted / truncated disk bundles and fingerprints
// must surface as clean Status errors, never as wrong answers or crashes.

#include <filesystem>
#include <cstring>
#include <fstream>

#include <gtest/gtest.h>

#include "core/index.h"
#include "datagen/generators.h"
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

  // The one file of the bundle at `base`.
  static std::string Tsw(const std::string& base) { return base + ".tsw"; }

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

// Format v4 header offsets: magic u64 at byte 0, version u32 at 8,
// fingerprint length u32 at 12, then one 24-byte section entry per section
// from byte 16 (section u32, record_size u32, record_count u64 at +8,
// byte_offset u64 at +16) and the fingerprint from byte 88. The node
// section starts at byte 4096.
constexpr std::size_t kSectionEntryOffset = 16;
constexpr std::size_t kSectionEntryBytes = 24;
constexpr std::size_t kFingerprintOffset = 88;
constexpr std::size_t kNodesOffset = 4096;

std::size_t CountField(std::size_t section) {
  return kSectionEntryOffset + section * kSectionEntryBytes + 8;
}

std::uint64_t SectionOffset(const std::string& path, std::size_t section) {
  std::ifstream in(path, std::ios::binary);
  in.seekg(static_cast<std::streamoff>(kSectionEntryOffset +
                                       section * kSectionEntryBytes + 16));
  std::uint64_t offset = 0;
  in.read(reinterpret_cast<char*>(&offset), sizeof(offset));
  return offset;
}

TEST_F(FailureInjectionTest, CorruptMetaMagicRejected) {
  WriteBundle(Path("t"));
  CorruptFile(Tsw(Path("t")), 0, "XXXXXXXX");
  auto tree = suffixtree::DiskSuffixTree::Open(Path("t"));
  ASSERT_FALSE(tree.ok());
  EXPECT_EQ(tree.status().code(), StatusCode::kCorruption);
}

// The labels section cut off: the v4 form of a missing labels file.
TEST_F(FailureInjectionTest, MissingRegionFileRejected) {
  WriteBundle(Path("t"));
  std::filesystem::resize_file(Tsw(Path("t")),
                               SectionOffset(Tsw(Path("t")), 2) + 2);
  auto tree = suffixtree::DiskSuffixTree::Open(Path("t"));
  ASSERT_FALSE(tree.ok());
  EXPECT_EQ(tree.status().code(), StatusCode::kCorruption);
  EXPECT_NE(tree.status().message().find("labels"), std::string::npos)
      << tree.status();
}

// A file that ends inside its header, as a writer that crashed before
// finishing it would leave (a published bundle never is one: it is
// renamed into place only once complete).
TEST_F(FailureInjectionTest, UnfinalizedMetaRejected) {
  WriteBundle(Path("t"));
  std::filesystem::resize_file(Tsw(Path("t")), 2048);
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
  CorruptFile(Tsw(Path("idx")), kFingerprintOffset, "garbage!");
  auto reopened = core::Index::Open(&db, options);
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kCorruption);
}

TEST_F(FailureInjectionTest, EmptySymbolDatabaseBuildFails) {
  suffixtree::SymbolDatabase empty;
  auto tree = suffixtree::BuildDiskTree(empty, Path("e"));
  EXPECT_FALSE(tree.ok());
}

// --- every malformed bundle is refused at Open with a clean Corruption
// status — the mapping validates section extents up front, so no query
// ever dereferences past EOF (no SIGBUS).

TEST_F(FailureInjectionTest, TruncatedNodesRejectedUnderMmap) {
  WriteBundle(Path("t"));
  // 40 bytes holds one 28-byte node record at most; the bundle has more.
  std::filesystem::resize_file(Tsw(Path("t")), kNodesOffset + 40);
  auto tree = suffixtree::DiskSuffixTree::Open(Path("t"));
  ASSERT_FALSE(tree.ok());
  EXPECT_EQ(tree.status().code(), StatusCode::kCorruption);
}

TEST_F(FailureInjectionTest, TruncatedOccsRejectedUnderMmap) {
  WriteBundle(Path("t"));
  std::filesystem::resize_file(Tsw(Path("t")),
                               SectionOffset(Tsw(Path("t")), 1) + 8);
  auto tree = suffixtree::DiskSuffixTree::Open(Path("t"));
  ASSERT_FALSE(tree.ok());
  EXPECT_EQ(tree.status().code(), StatusCode::kCorruption);
}

TEST_F(FailureInjectionTest, CorruptSectionTableRejected) {
  WriteBundle(Path("t"));
  // The first section entry's id and record size.
  CorruptFile(Tsw(Path("t")), kSectionEntryOffset, "XXXXXXXX");
  auto tree = suffixtree::DiskSuffixTree::Open(Path("t"));
  ASSERT_FALSE(tree.ok());
  EXPECT_EQ(tree.status().code(), StatusCode::kCorruption);
  EXPECT_NE(tree.status().message().find("section table entry"),
            std::string::npos)
      << tree.status();
}

// --- record validation: Open checks every node record's label range and
// child / sibling / occurrence ids against the counts, so a corrupt
// record is a Corruption at Open, never a read outside the
// bundle mid-query.

template <typename T>
void PatchRecordField(const std::string& path, std::size_t offset, T value) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.good()) << path;
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(reinterpret_cast<const char*>(&value), sizeof(value));
}

// Node record fields: u32 label_offset at byte 0, label_len
// at 4, first_child at 8, next_sibling at 12, first_occ at 16.
constexpr std::size_t kNodeRecordBytes = 28;

TEST_F(FailureInjectionTest, OutOfRangeLabelRejected) {
  const std::string base = Path("t");
  WriteBundle(base);
  // Node 1's label_offset (u32 at byte 0 of its record) points far past
  // the text.
  PatchRecordField<std::uint32_t>(Tsw(base), kNodesOffset + kNodeRecordBytes,
                                  std::uint32_t{1} << 30);
  auto tree = suffixtree::DiskSuffixTree::Open(base);
  ASSERT_FALSE(tree.ok());
  EXPECT_EQ(tree.status().code(), StatusCode::kCorruption);
  EXPECT_NE(tree.status().message().find("label"), std::string::npos)
      << tree.status();
}

TEST_F(FailureInjectionTest, LabelRunningPastTheTextRejected) {
  const std::string base = Path("t");
  WriteBundle(base);
  // In-range offset, but label_len (u32 at byte 4) runs off the end.
  PatchRecordField<std::uint32_t>(Tsw(base),
                                  kNodesOffset + kNodeRecordBytes + 4,
                                  1000);
  auto tree = suffixtree::DiskSuffixTree::Open(base);
  ASSERT_FALSE(tree.ok());
  EXPECT_EQ(tree.status().code(), StatusCode::kCorruption);
}

TEST_F(FailureInjectionTest, EmptyNonRootLabelAtTextEndRejected) {
  const std::string base = Path("t");
  WriteBundle(base);
  std::uint64_t text_size = 0;
  {
    auto intact = suffixtree::DiskSuffixTree::Open(base);
    ASSERT_TRUE(intact.ok()) << intact.status();
    text_size = (*intact)->Text().size();
  }
  // Node 1's label becomes [text end, +0): inside the text by range,
  // but a search would read its first symbol one past the end.
  PatchRecordField<std::uint32_t>(Tsw(base), kNodesOffset + kNodeRecordBytes,
                                  static_cast<std::uint32_t>(text_size));
  PatchRecordField<std::uint32_t>(Tsw(base),
                                  kNodesOffset + kNodeRecordBytes + 4, 0);
  auto tree = suffixtree::DiskSuffixTree::Open(base);
  ASSERT_FALSE(tree.ok());
  EXPECT_EQ(tree.status().code(), StatusCode::kCorruption);
  EXPECT_NE(tree.status().message().find("label length"), std::string::npos)
      << tree.status();
}

TEST_F(FailureInjectionTest, OutOfRangeChildIdRejected) {
  const std::string base = Path("t");
  WriteBundle(base);
  // The root's first_child (u32 at byte 8) names a node that does not
  // exist.
  PatchRecordField<std::uint32_t>(Tsw(base), kNodesOffset + 8, 0x7FFFFFFFu);
  auto tree = suffixtree::DiskSuffixTree::Open(base);
  ASSERT_FALSE(tree.ok());
  EXPECT_EQ(tree.status().code(), StatusCode::kCorruption);
  EXPECT_NE(tree.status().message().find("child"), std::string::npos)
      << tree.status();
}

TEST_F(FailureInjectionTest, OutOfRangeOccurrenceIdRejected) {
  const std::string base = Path("t");
  WriteBundle(base);
  // Occurrence 0's `next` (u32 at byte 12 of its 16-byte record).
  PatchRecordField<std::uint32_t>(Tsw(base), SectionOffset(Tsw(base), 1) + 12,
                                  0x12345678u);
  auto tree = suffixtree::DiskSuffixTree::Open(base);
  ASSERT_FALSE(tree.ok());
  EXPECT_EQ(tree.status().code(), StatusCode::kCorruption);
}

TEST_F(FailureInjectionTest, BundleWithoutRootRejected) {
  const std::string base = Path("t");
  WriteBundle(base);
  // Zero nodes in the node section's record_count: a section table that
  // fits the file, but no root for a search to start at.
  PatchRecordField<std::uint64_t>(Tsw(base), CountField(0), 0);
  auto tree = suffixtree::DiskSuffixTree::Open(base);
  ASSERT_FALSE(tree.ok());
  EXPECT_EQ(tree.status().code(), StatusCode::kCorruption);
  EXPECT_NE(tree.status().message().find("root"), std::string::npos)
      << tree.status();
}

TEST_F(FailureInjectionTest, WrappingRecordCountRejected) {
  const std::string base = Path("t");
  WriteBundle(base);
  // The node section's record_count becomes 2^62 + 1, whose 28-byte
  // records wrap a u64 byte length to 28, which the file holds. Walking
  // that many records would read far past the mapping.
  const std::uint64_t huge = (std::uint64_t{1} << 62) + 1;
  PatchRecordField<std::uint64_t>(Tsw(base), CountField(0), huge);
  auto tree = suffixtree::DiskSuffixTree::Open(base);
  ASSERT_FALSE(tree.ok());
  EXPECT_EQ(tree.status().code(), StatusCode::kCorruption);
  EXPECT_NE(tree.status().message().find("node count"), std::string::npos)
      << tree.status();
}

TEST_F(FailureInjectionTest, V1BundleRejectedWithRebuildHint) {
  // A bundle of formats v1-v3 is a `<base>.meta` page next to region
  // files, with no `.tsw`: a clean refusal that names the remedy.
  std::ofstream(Path("old") + ".meta") << std::string(4096, '\0');
  auto old = suffixtree::DiskSuffixTree::Open(Path("old"));
  ASSERT_FALSE(old.ok());
  EXPECT_EQ(old.status().code(), StatusCode::kCorruption);
  EXPECT_NE(old.status().message().find("rebuild"), std::string::npos)
      << old.status();

  // A `.tsw` whose version field says another format: the same remedy.
  WriteBundle(Path("t"));
  PatchRecordField<std::uint32_t>(Tsw(Path("t")), 8, 1);
  auto tree = suffixtree::DiskSuffixTree::Open(Path("t"));
  ASSERT_FALSE(tree.ok());
  EXPECT_EQ(tree.status().code(), StatusCode::kCorruption);
  EXPECT_NE(tree.status().message().find("rebuild"), std::string::npos)
      << tree.status();
}

TEST_F(FailureInjectionTest, WriterFailsCleanlyWithoutParentDir) {
  // The writer must surface a missing directory as a Status, not a
  // crash.
  suffixtree::SymbolDatabase db;
  db.Add({1, 2, 1, 2, 3, 1});
  const suffixtree::SuffixTree tree = suffixtree::BuildSuffixTree(db);
  const std::string base = Path("no_such_subdir") + "/t";
  auto written = suffixtree::WriteTreeToDisk(tree, base);
  EXPECT_FALSE(written.ok());
}

TEST_F(FailureInjectionTest, PublishedBundleLeavesNoTempFiles) {
  // After a build that goes through the tmp-write + rename + dir-fsync
  // publish protocol, the one bundle file is all that remains and the
  // result reopens mapped.
  datagen::RandomWalkOptions data;
  data.num_sequences = 6;
  data.avg_length = 24;
  const seqdb::SequenceDatabase db = datagen::GenerateRandomWalks(data);
  core::IndexOptions options;
  options.kind = core::IndexKind::kSparse;
  options.num_categories = 4;
  options.disk_path = Path("pub");
  options.disk_batch_sequences = 2;  // Force spill + merge intermediates.
  auto index = core::Index::Build(&db, options);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  std::size_t files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    EXPECT_EQ(entry.path().filename().string().find("tmp"),
              std::string::npos)
        << "leftover temp file: " << entry.path();
    ++files;
  }
  EXPECT_EQ(files, 1u);
  EXPECT_TRUE(std::filesystem::is_regular_file(Tsw(Path("pub"))));
  auto reopened = core::Index::Open(&db, options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_GT(reopened->MappedStats().mapped_bytes, 0u);
}

}  // namespace
}  // namespace tswarp
