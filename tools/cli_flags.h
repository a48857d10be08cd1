#ifndef TSWARP_TOOLS_CLI_FLAGS_H_
#define TSWARP_TOOLS_CLI_FLAGS_H_

#include <algorithm>
#include <cstdio>
#include <string_view>
#include <vector>

namespace tswarp {

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
