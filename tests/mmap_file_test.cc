// storage::MappedFile / SyncDir: the single mmap choke point, and
// storage::WriteFile, the durable-write choke point. Mapping semantics
// (whole file, read-only, empty-file special case), up-front record
// extent checks (truncation -> Corruption, never a later SIGBUS),
// move-only ownership, write and directory fsync errors, and scratch
// files that have no name.

#include <array>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <span>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "storage/mmap_file.h"
#include "test_util.h"

namespace tswarp::storage {
namespace {

using Record16 = std::array<std::byte, 16>;

class MmapFileTest : public testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("tswarp_mmap_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Path(const std::string& name) { return (dir_ / name).string(); }

  std::string WriteTestFile(const std::string& name, const std::string& body) {
    const std::string path = Path(name);
    std::ofstream f(path, std::ios::binary);
    f.write(body.data(), static_cast<std::streamsize>(body.size()));
    return path;
  }

  std::filesystem::path dir_;
};

TEST_F(MmapFileTest, MapsWholeFileReadOnly) {
  const std::string body = "0123456789abcdef";
  const std::string path = WriteTestFile("f", body);
  auto file = MappedFile::Open(path);
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  EXPECT_EQ(file->size_bytes(), body.size());
  EXPECT_EQ(file->view(), body);
  EXPECT_EQ(file->bytes().size(), body.size());
  EXPECT_EQ(file->path(), path);
}

TEST_F(MmapFileTest, MissingFileIsAStatusNotACrash) {
  auto file = MappedFile::Open(Path("does_not_exist"));
  ASSERT_FALSE(file.ok());
  EXPECT_EQ(file.status().code(), StatusCode::kIOError);
}

TEST_F(MmapFileTest, EmptyFileMapsToEmptySpan) {
  const std::string path = WriteTestFile("empty", "");
  auto file = MappedFile::Open(path);
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  EXPECT_EQ(file->size_bytes(), 0u);
  EXPECT_TRUE(file->bytes().empty());
}

TEST_F(MmapFileTest, MoveTransfersTheMapping) {
  const std::string body = "payload";
  auto file = MappedFile::Open(WriteTestFile("m", body));
  ASSERT_TRUE(file.ok());
  MappedFile moved = std::move(*file);
  EXPECT_EQ(moved.view(), body);
  EXPECT_EQ(file->size_bytes(), 0u);  // Moved-from: empty, destructible.
}

TEST_F(MmapFileTest, AdviseAndResidencyAreBestEffort) {
  const std::string body(8192, 'x');
  auto file = MappedFile::Open(WriteTestFile("r", body));
  ASSERT_TRUE(file.ok());
  file->Advise(AccessHint::kWillNeed);
  file->Advise(AccessHint::kRandom);
  // The file was just written and then touched through the mapping, so
  // some of it is resident; the probe must never exceed the mapping.
  volatile char sink = file->view()[0];
  (void)sink;
  EXPECT_LE(file->ResidentBytes(), ((body.size() + 4095) / 4096) * 4096);
}

TEST_F(MmapFileTest, RegionValidatesExtentUpFront) {
  const std::string body(64, 'r');  // Room for exactly 4 16-byte records.
  auto file = MappedFile::Open(WriteTestFile("g", body));
  ASSERT_TRUE(file.ok());

  auto records = file->Records<Record16>(4, "records");
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  EXPECT_EQ(records->size(), 4u);
  EXPECT_EQ(records->data()->data(), file->bytes().data());
  EXPECT_EQ((*records)[3].data(), file->bytes().data() + 48);

  // One record too many: refused when the span is asked for, not at
  // dereference.
  auto truncated = file->Records<Record16>(5, "records");
  ASSERT_FALSE(truncated.ok());
  EXPECT_EQ(truncated.status().code(), StatusCode::kCorruption);
  // A count whose byte size wraps a u64 (16 * (2^60 + 1) = 16) is
  // refused too.
  auto wrapped =
      file->Records<Record16>((std::uint64_t{1} << 60) + 1, "records");
  EXPECT_FALSE(wrapped.ok());

  // At an offset: the records start there and must still fit the file.
  auto tail = file->Records<Record16>(2, "records", 32);
  ASSERT_TRUE(tail.ok()) << tail.status().ToString();
  EXPECT_EQ(tail->data()->data(), file->bytes().data() + 32);
  EXPECT_FALSE(file->Records<Record16>(3, "records", 32).ok());
  EXPECT_FALSE(file->Records<Record16>(0, "records", 65).ok());
}

TEST_F(MmapFileTest, EmptyRegionOverEmptyFileIsFine) {
  auto file = MappedFile::Open(WriteTestFile("z", ""));
  ASSERT_TRUE(file.ok());
  auto records = file->Records<Record16>(0, "records");
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  EXPECT_TRUE(records->empty());
  auto nonempty = file->Records<Record16>(1, "records");
  EXPECT_FALSE(nonempty.ok());
}

TEST_F(MmapFileTest, WriteFileWritesEveryByteDurably) {
  const std::string head = "a header, ";
  const std::string body = "then the sections";
  ASSERT_TRUE(WriteFile(Path("w"), {std::as_bytes(std::span(head)),
                                    std::as_bytes(std::span(body))})
                  .ok());
  auto file = MappedFile::Open(Path("w"));
  ASSERT_TRUE(file.ok()) << file.status();
  EXPECT_EQ(file->view(), head + body);
  // Rewriting truncates: no stale tail survives a shorter write.
  ASSERT_TRUE(WriteFile(Path("w"), {}).ok());
  EXPECT_EQ(std::filesystem::file_size(Path("w")), 0u);
}

TEST_F(MmapFileTest, WriteFileReportsFailuresAsIOError) {
  const std::string body = "x";
  const Status missing_dir =
      WriteFile(Path("nope") + "/w", {std::as_bytes(std::span(body))});
  EXPECT_EQ(missing_dir.code(), StatusCode::kIOError) << missing_dir;
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  const Status full = WriteFile("/dev/full", {std::as_bytes(std::span(body))});
  EXPECT_EQ(full.code(), StatusCode::kIOError) << full;
}

// Both scratch writers: WriteScratch (O_TMPFILE where the filesystem has
// it) and the fallback it takes where not, called directly so it runs on
// every filesystem.
using ScratchWriter = StatusOr<MappedFile> (*)(
    const std::string&, std::initializer_list<std::span<const std::byte>>);
constexpr std::pair<const char*, ScratchWriter> kScratchWriters[] = {
    {"WriteScratch", &MappedFile::WriteScratch},
    {"WriteScratchUnlinked", &MappedFile::WriteScratchUnlinked}};

TEST_F(MmapFileTest, ScratchFileIsMappedAndHasNoName) {
  const std::string head = "a header, ";
  const std::string body(10000, 's');
  for (const auto& [name, write] : kScratchWriters) {
    auto file = write(dir_.string(), {std::as_bytes(std::span(head)),
                                      std::as_bytes(std::span(body))});
    ASSERT_TRUE(file.ok()) << name << ": " << file.status();
    EXPECT_EQ(file->view(), head + body) << name;
    EXPECT_TRUE(testutil::FileNames(dir_).empty()) << name;
  }
}

TEST_F(MmapFileTest, ScratchFileReportsFailuresAndLeavesNothing) {
  const std::string body(8192, 'f');
  for (const auto& [name, write] : kScratchWriters) {
    const auto missing_dir =
        write(Path("nope"), {std::as_bytes(std::span(body))});
    EXPECT_EQ(missing_dir.status().code(), StatusCode::kIOError) << name;
    Status full;
    {
      const testutil::WriteLimit limit(4096);
      full = write(dir_.string(), {std::as_bytes(std::span(body))}).status();
    }
    EXPECT_EQ(full.code(), StatusCode::kIOError) << name;
    EXPECT_NE(full.message().find("scratch file in " + dir_.string()),
              std::string::npos)
        << name << ": " << full;
    EXPECT_TRUE(testutil::FileNames(dir_).empty()) << name;
  }
}

TEST_F(MmapFileTest, SyncDirSucceedsOnARealDirectory) {
  EXPECT_TRUE(SyncDir(dir_.string()).ok());
  EXPECT_TRUE(SyncDir(".").ok());
}

TEST_F(MmapFileTest, SyncDirReportsMissingDirectory) {
  const Status status = SyncDir(Path("nope"));
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kIOError);
}

}  // namespace
}  // namespace tswarp::storage
