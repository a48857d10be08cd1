#ifndef TSWARP_TESTS_TEST_UTIL_H_
#define TSWARP_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
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

}  // namespace tswarp::testutil

#endif  // TSWARP_TESTS_TEST_UTIL_H_
