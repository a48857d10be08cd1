#ifndef TSWARP_TESTS_TEST_UTIL_H_
#define TSWARP_TESTS_TEST_UTIL_H_

#include <sys/resource.h>

#include <algorithm>
#include <csignal>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/match.h"

namespace tswarp::testutil {

/// Asserts two match sets are identical as sets of (seq, start, len) and
/// that the reported distances agree.
inline void ExpectSameMatches(const std::vector<core::Match>& expected,
                              const std::vector<core::Match>& actual,
                              const std::string& context) {
  std::vector<core::Match> e = expected;
  std::vector<core::Match> a = actual;
  std::sort(e.begin(), e.end(), core::MatchLess);
  std::sort(a.begin(), a.end(), core::MatchLess);
  ASSERT_EQ(e.size(), a.size()) << context << ": result-set sizes differ";
  for (std::size_t i = 0; i < e.size(); ++i) {
    EXPECT_EQ(e[i].seq, a[i].seq) << context << " at " << i;
    EXPECT_EQ(e[i].start, a[i].start) << context << " at " << i;
    EXPECT_EQ(e[i].len, a[i].len) << context << " at " << i;
    EXPECT_NEAR(e[i].distance, a[i].distance, 1e-9) << context << " at " << i;
  }
}

/// Section `i` (0 nodes, 1 occurrences, 2 labels) of the bundle file
/// bytes `file`, cut where its format v4 section table says: entry i
/// starts at byte 16 + 24 i and holds record_size (u32 at +4),
/// record_count (u64 at +8) and byte_offset (u64 at +16). Empty if the
/// file is too short to hold the entry.
inline std::string BundleSection(const std::string& file, std::size_t i) {
  const std::size_t entry = 16 + 24 * i;
  if (file.size() < entry + 24) return {};
  std::uint32_t record_size = 0;
  std::uint64_t count = 0;
  std::uint64_t offset = 0;
  std::memcpy(&record_size, file.data() + entry + 4, sizeof(record_size));
  std::memcpy(&count, file.data() + entry + 8, sizeof(count));
  std::memcpy(&offset, file.data() + entry + 16, sizeof(offset));
  return file.substr(offset, count * record_size);
}

/// The names of the files in `dir`.
inline std::set<std::string> FileNames(const std::filesystem::path& dir) {
  std::set<std::string> names;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    names.insert(entry.path().filename().string());
  }
  return names;
}

/// For a forked death-test child: from here on the first write that would
/// take any file, named or not, past `limit` bytes kills the process with
/// SIGXFSZ where it stands, as a crash would. Writes no core file: an
/// RLIMIT_CORE of 1 byte holds also where cores are piped to a helper.
inline void KillAtWriteLimit(std::uint64_t limit) {
  const rlimit core{1, 1};
  ::setrlimit(RLIMIT_CORE, &core);
  rlimit fsize{};
  ::getrlimit(RLIMIT_FSIZE, &fsize);
  fsize.rlim_cur = std::min<rlim_t>(limit, fsize.rlim_max);
  ::setrlimit(RLIMIT_FSIZE, &fsize);
}

/// Lowers this process's file-size limit to `limit` bytes with SIGXFSZ
/// ignored, so a write past it fails with EFBIG, as on a full disk, named
/// file or not; restores both on scope exit. The limit holds for every
/// thread of the process.
class WriteLimit {
 public:
  explicit WriteLimit(std::uint64_t limit) {
    ::getrlimit(RLIMIT_FSIZE, &saved_);
    saved_handler_ = std::signal(SIGXFSZ, SIG_IGN);
    rlimit lowered = saved_;
    lowered.rlim_cur = std::min<rlim_t>(limit, saved_.rlim_max);
    ::setrlimit(RLIMIT_FSIZE, &lowered);
  }
  ~WriteLimit() {
    ::setrlimit(RLIMIT_FSIZE, &saved_);
    std::signal(SIGXFSZ, saved_handler_);
  }
  WriteLimit(const WriteLimit&) = delete;
  WriteLimit& operator=(const WriteLimit&) = delete;

 private:
  rlimit saved_{};
  void (*saved_handler_)(int) = nullptr;
};

}  // namespace tswarp::testutil

#endif  // TSWARP_TESTS_TEST_UTIL_H_
