#ifndef TSWARP_TOOLS_CLI_FLAGS_H_
#define TSWARP_TOOLS_CLI_FLAGS_H_

#include <algorithm>
#include <cerrno>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string_view>
#include <vector>

namespace tswarp {

/// The value following `flag` in argv[2..], or `fallback` if it is absent.
inline const char* FlagValue(int argc, char** argv, const char* flag,
                             const char* fallback) {
  for (int i = 2; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return argv[i + 1];
  }
  return fallback;
}

/// `flag`'s value read with atol, or `fallback` if it is absent.
inline long FlagLong(int argc, char** argv, const char* flag, long fallback) {
  const char* v = FlagValue(argc, argv, flag, nullptr);
  return v == nullptr ? fallback : std::atol(v);
}

/// True iff the switch `flag` appears in argv[2..].
inline bool HasFlag(int argc, char** argv, const char* flag) {
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return true;
  }
  return false;
}

/// Reads the count `flag` into `out` (`fallback` if it is absent). A value
/// that is not a non-negative integer is refused (printed, false
/// returned): cast straight to std::size_t, -1 would wrap to SIZE_MAX and
/// ask for that many queue slots or threads.
inline bool FlagCount(int argc, char** argv, const char* flag,
                      std::size_t fallback, std::size_t* out) {
  const char* text = FlagValue(argc, argv, flag, nullptr);
  if (text == nullptr) {
    *out = fallback;
    return true;
  }
  char* end = nullptr;
  errno = 0;
  const long long raw = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0' || errno != 0 || raw < 0) {
    std::fprintf(stderr, "%s must be a count >= 0 (got %s)\n", flag, text);
    return false;
  }
  *out = static_cast<std::size_t>(raw);
  return true;
}

/// True iff every `--flag` in argv[2..] is in `value_flags` (each followed
/// by its value) or `switches`; prints the first one that is not. A flag
/// the subcommand does not take (misspelled, or removed) is a usage error
/// instead of being silently ignored.
inline bool OnlyKnownFlags(int argc, char** argv,
                           const std::vector<std::string_view>& value_flags,
                           const std::vector<std::string_view>& switches) {
  const auto has = [](const std::vector<std::string_view>& flags,
                      std::string_view flag) {
    return std::find(flags.begin(), flags.end(), flag) != flags.end();
  };
  for (int i = 2; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (!arg.starts_with("--")) continue;
    if (has(value_flags, arg)) {
      ++i;  // Skip the value.
    } else if (!has(switches, arg)) {
      std::fprintf(stderr, "%s: unknown flag %s\n", argv[1], argv[i]);
      return false;
    }
  }
  return true;
}

}  // namespace tswarp

#endif  // TSWARP_TOOLS_CLI_FLAGS_H_
