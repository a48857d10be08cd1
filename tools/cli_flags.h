#ifndef TSWARP_TOOLS_CLI_FLAGS_H_
#define TSWARP_TOOLS_CLI_FLAGS_H_

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "core/index.h"
#include "seqdb/sequence_database.h"

namespace tswarp {

/// The value following `flag` in argv[2..], or `fallback` if it is absent.
inline const char* FlagValue(int argc, char** argv, const char* flag,
                             const char* fallback) {
  for (int i = 2; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return argv[i + 1];
  }
  return fallback;
}

/// True iff the switch `flag` appears in argv[2..].
inline bool HasFlag(int argc, char** argv, const char* flag) {
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return true;
  }
  return false;
}

/// Reads the integer `flag` into `out` (`fallback` if it is absent). A
/// value that is not wholly one integer in [lo, hi] is refused (printed,
/// false returned) instead of being read as its leading digits ("2x" as 2)
/// or as 0 ("abc").
inline bool FlagInt(int argc, char** argv, const char* flag,
                    long long fallback, long long lo, long long hi,
                    long long* out) {
  const char* text = FlagValue(argc, argv, flag, nullptr);
  if (text == nullptr) {
    *out = fallback;
    return true;
  }
  char* end = nullptr;
  errno = 0;
  const long long raw = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0' || errno != 0 || raw < lo || raw > hi) {
    if (hi == LLONG_MAX) {
      std::fprintf(stderr, "%s must be an integer >= %lld (got %s)\n", flag,
                   lo, text);
    } else {
      std::fprintf(stderr, "%s must be an integer in [%lld, %lld] (got %s)\n",
                   flag, lo, hi, text);
    }
    return false;
  }
  *out = raw;
  return true;
}

/// Reads the count `flag` into `out` (`fallback` if it is absent): a
/// non-negative integer (FlagInt). Cast straight to std::size_t, -1 would
/// wrap to SIZE_MAX and ask for that many queue slots or threads.
inline bool FlagCount(int argc, char** argv, const char* flag,
                      std::size_t fallback, std::size_t* out) {
  long long value = 0;
  if (!FlagInt(argc, argv, flag, static_cast<long long>(fallback), 0,
               LLONG_MAX, &value)) {
    return false;
  }
  *out = static_cast<std::size_t>(value);
  return true;
}

/// Reads `--port` into `out`: an integer in [0, 65535], 8787 if absent.
inline bool FlagPort(int argc, char** argv, int* out) {
  long long port = 0;
  if (!FlagInt(argc, argv, "--port", 8787, 0, 65535, &port)) return false;
  *out = static_cast<int>(port);
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

/// Parses `text`, comma-separated numbers such as "50,51.5,52", into
/// `out`; an empty `text` gives an empty list. Every entry must be one
/// finite number: the first that is not ("5x", "", "nan", "inf") is
/// printed after `what` and false returned, so a malformed list is
/// refused instead of cut short at the bad entry.
inline bool ParseValues(const char* what, std::string_view text,
                        std::vector<Value>* out) {
  out->clear();
  if (text.empty()) return true;
  std::size_t begin = 0;
  while (true) {
    const std::size_t comma = text.find(',', begin);
    const std::string entry(text.substr(begin, comma - begin));
    char* end = nullptr;
    const double v = std::strtod(entry.c_str(), &end);
    if (entry.empty() || end != entry.c_str() + entry.size() ||
        !std::isfinite(v)) {
      std::fprintf(stderr, "%s: '%s' is not a finite number\n", what,
                   entry.c_str());
      return false;
    }
    out->push_back(v);
    if (comma == std::string_view::npos) return true;
    begin = comma + 1;
  }
}

/// The database at argv[2]. A load error is printed and returned.
inline StatusOr<seqdb::SequenceDatabase> LoadDb(int argc, char** argv) {
  StatusOr<seqdb::SequenceDatabase> db =
      argc < 3 ? StatusOr<seqdb::SequenceDatabase>(
                     Status::InvalidArgument("missing database path"))
               : seqdb::SequenceDatabase::Load(argv[2]);
  if (!db.ok()) std::fprintf(stderr, "%s\n", db.status().ToString().c_str());
  return db;
}

/// Reads --kind (st, stc, or sstc: the default), --method (el, km, or me:
/// the default), --categories (default 40) and --index into `out`.
/// Returns false (after printing) on a --kind or --method it does not
/// know, or a bad --categories.
inline bool IndexOptionsFromFlags(int argc, char** argv,
                                  core::IndexOptions* out) {
  core::IndexOptions options;
  const std::string_view kind = FlagValue(argc, argv, "--kind", "sstc");
  if (kind == "st") {
    options.kind = core::IndexKind::kSuffixTree;
  } else if (kind == "stc") {
    options.kind = core::IndexKind::kCategorized;
  } else if (kind == "sstc") {
    options.kind = core::IndexKind::kSparse;
  } else {
    std::fprintf(stderr, "--kind must be st, stc or sstc (got %s)\n",
                 std::string(kind).c_str());
    return false;
  }
  const std::string_view method = FlagValue(argc, argv, "--method", "me");
  if (method == "el") {
    options.method = categorize::Method::kEqualLength;
  } else if (method == "km") {
    options.method = categorize::Method::kKMeans;
  } else if (method == "me") {
    options.method = categorize::Method::kMaxEntropy;
  } else {
    std::fprintf(stderr, "--method must be el, km or me (got %s)\n",
                 std::string(method).c_str());
    return false;
  }
  if (!FlagCount(argc, argv, "--categories", 40, &options.num_categories)) {
    return false;
  }
  options.disk_path = FlagValue(argc, argv, "--index", "");
  *out = options;
  return true;
}

/// The index `options` describe over `db`, the database at `db_path`.
/// The bundle at options.disk_path is opened and built only when there is
/// none (Index::Open returns NotFound): one built from another database or
/// with other options is refused, never overwritten. Without a disk path
/// the index is built in memory. An error is printed, naming `db_path`,
/// and returned.
inline StatusOr<core::Index> OpenOrBuildIndex(
    const char* db_path, const seqdb::SequenceDatabase& db,
    const core::IndexOptions& options) {
  // One expression: Index is not move-assignable (the snapshot handle has
  // exactly one sanctioned swap path), so the StatusOr is built once.
  StatusOr<core::Index> index = [&]() -> StatusOr<core::Index> {
    if (!options.disk_path.empty()) {
      StatusOr<core::Index> opened = core::Index::Open(&db, options);
      if (opened.status().code() != StatusCode::kNotFound) return opened;
    }
    return core::Index::Build(&db, options);
  }();
  if (!index.ok()) {
    std::fprintf(stderr, "index failed for %s: %s\n", db_path,
                 index.status().ToString().c_str());
  }
  return index;
}

}  // namespace tswarp

#endif  // TSWARP_TOOLS_CLI_FLAGS_H_
