// tswarp command-line tool: generate synthetic sequence databases, build
// and persist indexes, and run time-warping subsequence queries without
// writing any code.
//
//   tswarp_cli generate --kind stock --out market.db [--n 545] [--seed 7]
//   tswarp_cli info market.db
//   tswarp_cli build market.db --index /tmp/market_idx [--categories 40]
//   tswarp_cli search market.db --query 50,51,53,52 --epsilon 10
//   tswarp_cli search market.db --query 50,51,53,52 --epsilon 10
//       --index /tmp/market_idx          (reuses a persisted index)
//   tswarp_cli knn market.db --query 50,51,53,52 --k 5
//   tswarp_cli dot market.db --categories 8 --max-nodes 64

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "cli_flags.h"
#include "core/index.h"
#include "core/seq_scan.h"
#include "dtw/simd.h"
#include "datagen/generators.h"
#include "multivariate/multi_index.h"
#include "suffixtree/dot_export.h"

namespace tswarp {
namespace {

using core::Index;
using core::IndexKind;
using core::IndexOptions;
using core::Match;

// --epsilon must be one finite number >= 0, tswarpd's "invalid_epsilon"
// rule. Returns false (after printing) on a bad value.
bool FlagEpsilon(int argc, char** argv, Value* out) {
  const char* text = FlagValue(argc, argv, "--epsilon", "10");
  char* end = nullptr;
  *out = std::strtod(text, &end);
  if (end != text && *end == '\0' && std::isfinite(*out) && *out >= 0) {
    return true;
  }
  std::fprintf(stderr, "--epsilon must be a finite number >= 0 (got %s)\n",
               text);
  return false;
}

// --k must be an integer in [1, 1e9], tswarpd's "invalid_k" rule: atol
// would read "abc" as 0 and wrap -1 to a request for every subsequence.
// Returns false (after printing) on a bad value.
bool FlagK(int argc, char** argv, std::size_t* out) {
  constexpr long kMaxK = 1000000000;
  const char* text = FlagValue(argc, argv, "--k", "5");
  char* end = nullptr;
  errno = 0;
  const long raw = std::strtol(text, &end, 10);
  if (end == text || *end != '\0' || errno != 0 || raw < 1 || raw > kMaxK) {
    std::fprintf(stderr, "--k must be an integer in [1, 1e9] (got %s)\n",
                 text);
    return false;
  }
  *out = static_cast<std::size_t>(raw);
  return true;
}

// Reads the query knobs --threads, --band and --no-lb. --band must be in
// [0, query_length]: negative values would wrap, and a band wider than the
// query adds no legal warping paths — it only degenerates the query
// envelope, so it is a usage error rather than silently accepted. 0 means
// unconstrained warping. A band on a `sparse` index is refused: sparse
// suffix recovery is unsound under a band. Returns false after printing.
bool QueryOptionsFromFlags(int argc, char** argv, std::size_t query_length,
                           bool sparse, core::QueryOptions* out) {
  core::QueryOptions options;
  if (!FlagCount(argc, argv, "--threads", 0, &options.num_threads)) {
    return false;
  }
  long long band = 0;
  if (!FlagInt(argc, argv, "--band", 0, 0, LLONG_MAX, &band)) return false;
  if (static_cast<unsigned long long>(band) > query_length) {
    std::fprintf(stderr,
                 "--band %lld exceeds the query length %zu; a band wider "
                 "than the query is meaningless (use --band 0 for "
                 "unconstrained warping)\n",
                 band, query_length);
    return false;
  }
  if (band != 0 && sparse) {
    std::fprintf(stderr,
                 "--band needs a dense index, not --kind sstc (the "
                 "default): sparse suffix recovery is unsound under a "
                 "band\n");
    return false;
  }
  options.band = static_cast<Pos>(band);
  options.use_lower_bound = !HasFlag(argc, argv, "--no-lb");
  *out = options;
  return true;
}

int Usage() {
  std::fprintf(stderr,
               "usage: tswarp_cli <generate|info|build|search|knn|dot> "
               "[args]\n"
               "  generate --kind stock|walk|ecg --out FILE [--n N] "
               "[--len L] [--seed S]\n"
               "  info DB\n"
               "  build DB --index PATH [--kind st|stc|sstc] "
               "[--categories C] [--method el|me|km]\n"
               "  search DB --query v1,v2,... --epsilon E [--kind ...] "
               "[--categories C] [--method ...] [--index PATH] [--scan] "
               "[--limit N] [--threads T] [--band B] [--no-lb] [--stats] "
               "[--multi D]\n"
               "  knn DB --query v1,v2,... --k K [--kind ...] "
               "[--categories C] [--method ...] [--index PATH] "
               "[--threads T] [--band B] [--no-lb] [--stats] [--multi D]\n"
               "  dot DB [--kind ...] [--categories C] [--method ...] "
               "[--max-nodes N]\n"
               "--multi D reads DB as D-dimensional sequences (flattened "
               "element-major; every sequence and the query must have a "
               "multiple of D values). --kind stc = dense grid index, "
               "sstc = sparse; st has no multivariate analogue.\n"
               "--simd avx2|sse2|neon|scalar (any command) pins the DTW "
               "kernel backend, overriding auto-detection and the "
               "TSWARP_SIMD environment variable.\n"
               "Any other flag is a usage error.\n");
  return 2;
}

/// Prints the merged traversal counters of one search. Shared by the
/// univariate and multivariate paths: both run core::SearchDriver, so the
/// counters mean the same thing in either mode. The verification counters
/// are per start: "starts" were scanned (answers emitted, on exact ST
/// trees), "endpoint-rejected" ended at their first element, "lb-cut"
/// were ended by the running bound (endpoint cuts included) out of
/// "lb-screened", "exact scans" built at least one exact row, and "scan
/// rows" counts the exact rows those scans built.
void PrintStatsCounters(const core::SearchStats& stats) {
  std::printf(
      "stats: nodes %llu, rows %llu, pruned %llu, "
      "starts %llu, endpoint-rejected %llu, lb-screened %llu, "
      "lb-cut %llu, exact scans %llu, scan rows %llu\n",
      static_cast<unsigned long long>(stats.nodes_visited),
      static_cast<unsigned long long>(stats.rows_pushed),
      static_cast<unsigned long long>(stats.branches_pruned),
      static_cast<unsigned long long>(stats.candidates),
      static_cast<unsigned long long>(stats.endpoint_rejections),
      static_cast<unsigned long long>(stats.lb_invocations),
      static_cast<unsigned long long>(stats.lb_pruned),
      static_cast<unsigned long long>(stats.exact_dtw_calls),
      static_cast<unsigned long long>(stats.scan_rows));
  if (stats.tasks_executed > 0) {
    // Scheduler counters appear only for parallel searches (num_threads
    // >= 1).
    std::printf("scheduler: tasks %llu (%llu stolen)\n",
                static_cast<unsigned long long>(stats.tasks_executed),
                static_cast<unsigned long long>(stats.tasks_stolen));
  }
}

/// Counters plus the per-tier shape of the snapshot searched (one line for
/// a monolithic index; base + sealed + memtable when tiered) and, for
/// disk-backed indexes, the mapped footprint.
void PrintSearchStats(const Index& index, const core::SearchStats& stats) {
  PrintStatsCounters(stats);
  const auto& tiers = index.snapshot()->tiers();
  for (std::size_t i = 0; i < tiers.size(); ++i) {
    const core::TierInfo& t = tiers[i]->info;
    std::printf("tier %zu: seqs %llu..%llu, elements %llu, nodes %llu, "
                "occurrences %llu, %llu bytes, %s%s\n",
                i, static_cast<unsigned long long>(t.first_seq),
                static_cast<unsigned long long>(t.first_seq + t.sequences),
                static_cast<unsigned long long>(t.elements),
                static_cast<unsigned long long>(t.nodes),
                static_cast<unsigned long long>(t.occurrences),
                static_cast<unsigned long long>(t.index_bytes),
                t.on_disk ? "disk" : "memory",
                t.memtable ? ", memtable" : "");
  }
  if (index.disk_tree() != nullptr) {
    const core::MappedIoStats mapped = index.MappedStats();
    std::printf("mapped: %llu bytes (%llu resident)\n",
                static_cast<unsigned long long>(mapped.mapped_bytes),
                static_cast<unsigned long long>(mapped.resident_bytes));
  }
}

// Reinterprets the flat univariate database as element-major `dim`-wide
// multivariate sequences. Every sequence must hold a whole number of
// elements; returns false (after printing) otherwise.
bool BuildMultiDb(const seqdb::SequenceDatabase& db, std::size_t dim,
                  std::optional<mv::MultiSequenceDatabase>* out) {
  out->emplace(dim);
  for (SeqId id = 0; id < db.size(); ++id) {
    const seqdb::Sequence& s = db.sequence(id);
    if (s.size() % dim != 0) {
      std::fprintf(stderr,
                   "--multi %zu: sequence %u has %zu values, not a "
                   "multiple of the dimension\n",
                   dim, id, s.size());
      return false;
    }
    (*out)->Add(s);
  }
  return true;
}

/// Multivariate search/k-NN (`--multi D`): a grid-cell index over the
/// reinterpreted database, searched through the same core::SearchDriver as
/// the univariate modes, so the query knobs and --stats mean the same; or
/// MultiSeqScan with --scan. `k == 0` runs a range search with `epsilon`.
/// Returns false after printing.
bool SearchMulti(int argc, char** argv, const seqdb::SequenceDatabase& db,
                 std::span<const Value> query, std::size_t dim,
                 const IndexOptions& index_options,
                 const core::QueryOptions& query_options, Value epsilon,
                 std::size_t k, std::vector<Match>* out) {
  const std::size_t query_len = query.size() / dim;
  if (!index_options.disk_path.empty()) {
    std::fprintf(stderr, "--multi indexes are in-memory only (no --index)\n");
    return false;
  }
  std::optional<mv::MultiSequenceDatabase> mdb;
  if (!BuildMultiDb(db, dim, &mdb)) return false;
  if (HasFlag(argc, argv, "--scan")) {
    *out = mv::MultiSeqScan(*mdb, query, query_len, epsilon,
                            query_options.band);
    return true;
  }
  if (index_options.kind == IndexKind::kSuffixTree) {
    std::fprintf(stderr,
                 "--kind st (exact values) has no multivariate analogue; "
                 "use --kind stc or sstc with --multi\n");
    return false;
  }
  mv::MultiIndexOptions options;
  options.sparse = index_options.kind == IndexKind::kSparse;
  if (!FlagCount(argc, argv, "--categories", 8,
                 &options.categories_per_dim)) {
    return false;
  }
  if (options.categories_per_dim < 1) {
    std::fprintf(stderr, "--categories must be >= 1 with --multi\n");
    return false;
  }
  auto index = mv::MultiIndex::Build(&*mdb, options);
  if (!index.ok()) {
    std::fprintf(stderr, "index failed: %s\n",
                 index.status().ToString().c_str());
    return false;
  }
  core::SearchStats stats;
  *out = k == 0 ? index->Search(query, query_len, epsilon, query_options,
                                &stats)
                : index->SearchKnn(query, query_len, k, query_options,
                                   &stats);
  if (HasFlag(argc, argv, "--stats")) PrintStatsCounters(stats);
  return true;
}

/// Prints an answer: its count line, then up to `limit` matches. `k > 0`
/// marks the k nearest, `k == 0` the matches within `epsilon`; `dim > 0` a
/// multivariate answer.
void PrintMatches(std::span<const Match> matches, std::size_t k,
                  Value epsilon, std::size_t dim, std::size_t limit) {
  if (k == 0) {
    std::printf("%zu matches (epsilon %.3f", matches.size(), epsilon);
    if (dim != 0) std::printf(", dim %zu", dim);
    std::printf(")\n");
  } else {
    std::printf("%zu nearest subsequences", matches.size());
    if (dim != 0) std::printf(" (dim %zu)", dim);
    std::printf(":\n");
  }
  for (std::size_t i = 0; i < matches.size() && i < limit; ++i) {
    const Match& m = matches[i];
    std::printf("  S%u[%u..%u] len %u  D_tw %.4f\n", m.seq, m.start,
                m.start + m.len - 1, m.len, m.distance);
  }
  if (matches.size() > limit) {
    std::printf("  ... %zu more (raise --limit)\n", matches.size() - limit);
  }
}

int CmdGenerate(int argc, char** argv) {
  const std::string kind = FlagValue(argc, argv, "--kind", "stock");
  const char* out = FlagValue(argc, argv, "--out", nullptr);
  if (out == nullptr) return Usage();
  std::size_t n = 0;
  std::size_t len = 0;
  long long seed = 0;
  if (!FlagCount(argc, argv, "--n", 0, &n) ||
      !FlagCount(argc, argv, "--len", 0, &len) ||
      !FlagInt(argc, argv, "--seed", 7, 0, LLONG_MAX, &seed)) {
    return 1;
  }

  seqdb::SequenceDatabase db;
  if (kind == "walk") {
    datagen::RandomWalkOptions options;
    if (n != 0) options.num_sequences = n;
    if (len != 0) options.avg_length = len;
    options.seed = seed;
    db = datagen::GenerateRandomWalks(options);
  } else if (kind == "ecg") {
    datagen::EcgOptions options;
    if (n != 0) options.num_sequences = n;
    if (len != 0) options.length = len;
    options.seed = seed;
    db = datagen::GenerateEcg(options);
  } else {
    datagen::StockOptions options;
    if (n != 0) options.num_sequences = n;
    if (len != 0) options.avg_length = len;
    options.seed = seed;
    db = datagen::GenerateStocks(options);
  }
  const Status s = db.Save(out);
  if (!s.ok()) {
    std::fprintf(stderr, "save failed: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("wrote %zu sequences (%zu elements) to %s\n", db.size(),
              db.TotalElements(), out);
  return 0;
}

int CmdInfo(int argc, char** argv) {
  const StatusOr<seqdb::SequenceDatabase> db = LoadDb(argc, argv);
  if (!db.ok()) return 1;
  const auto [lo, hi] = db->ValueRange();
  std::printf("sequences:      %zu\n", db->size());
  std::printf("elements:       %zu\n", db->TotalElements());
  std::printf("avg length:     %.1f\n", db->AverageLength());
  std::printf("value range:    [%.4f, %.4f]\n", lo, hi);
  std::printf("data bytes:     %zu\n", db->DataBytes());
  return 0;
}

int CmdBuild(int argc, char** argv) {
  const StatusOr<seqdb::SequenceDatabase> db = LoadDb(argc, argv);
  if (!db.ok()) return 1;
  IndexOptions options;
  if (!IndexOptionsFromFlags(argc, argv, &options)) return 1;
  if (options.disk_path.empty()) {
    std::fprintf(stderr, "build requires --index PATH\n");
    return 2;
  }
  auto index = Index::Build(&*db, options);
  if (!index.ok()) {
    std::fprintf(stderr, "build failed: %s\n",
                 index.status().ToString().c_str());
    return 1;
  }
  const auto& info = index->build_info();
  std::printf("kind:           %s\n", IndexKindToString(options.kind));
  std::printf("categories:     %zu\n", info.num_categories);
  std::printf("nodes:          %llu\n",
              static_cast<unsigned long long>(info.num_nodes));
  std::printf("stored suffixes:%llu (r=%.3f)\n",
              static_cast<unsigned long long>(info.stored_suffixes),
              info.compaction_ratio);
  std::printf("index bytes:    %llu\n",
              static_cast<unsigned long long>(info.index_bytes));
  std::printf("bundle:         %s.tsw\n",
              options.disk_path.c_str());
  return 0;
}

/// `search` (k == 0: every subsequence within --epsilon of the query) and
/// `knn` (the k nearest). A univariate query runs on the index the flags
/// describe, opened or built by OpenOrBuildIndex, or by SeqScan with
/// --scan; `--multi D` runs it through SearchMulti.
int CmdQuery(int argc, char** argv, std::size_t k) {
  const StatusOr<seqdb::SequenceDatabase> db = LoadDb(argc, argv);
  if (!db.ok()) return 1;
  std::vector<Value> query;
  if (!ParseValues("--query", FlagValue(argc, argv, "--query", ""),
                   &query)) {
    return 1;
  }
  if (query.empty()) return Usage();
  Value epsilon = 0;
  if (!FlagEpsilon(argc, argv, &epsilon)) return 1;
  // A k-NN answer holds at most k matches and prints them all. --multi D
  // reads the database as D-dimensional sequences; 0 (the default) means
  // univariate.
  std::size_t limit = k;
  std::size_t dim = 0;
  if ((k == 0 && !FlagCount(argc, argv, "--limit", 20, &limit)) ||
      !FlagCount(argc, argv, "--multi", 0, &dim)) {
    return 1;
  }
  if (dim != 0 && query.size() % dim != 0) {
    std::fprintf(stderr,
                 "--multi %zu: the query has %zu values, not a multiple "
                 "of the dimension\n",
                 dim, query.size());
    return 1;
  }
  const bool scan = HasFlag(argc, argv, "--scan");
  IndexOptions options;
  core::QueryOptions query_options;
  if (!IndexOptionsFromFlags(argc, argv, &options) ||
      !QueryOptionsFromFlags(
          argc, argv, dim == 0 ? query.size() : query.size() / dim,
          !scan && options.kind == IndexKind::kSparse, &query_options)) {
    return 1;
  }

  std::vector<Match> matches;
  if (dim != 0) {
    if (!SearchMulti(argc, argv, *db, query, dim, options, query_options,
                     epsilon, k, &matches)) {
      return 1;
    }
  } else if (scan) {
    core::SeqScanOptions scan_options;
    scan_options.band = query_options.band;
    scan_options.use_lower_bound = query_options.use_lower_bound;
    matches = core::SeqScan(*db, query, epsilon, scan_options);
  } else {
    const StatusOr<Index> index = OpenOrBuildIndex(argv[2], *db, options);
    if (!index.ok()) return 1;
    core::SearchStats stats;
    matches = k == 0 ? index->Search(query, epsilon, query_options, &stats)
                     : index->SearchKnn(query, k, query_options, &stats);
    if (HasFlag(argc, argv, "--stats")) PrintSearchStats(*index, stats);
  }
  PrintMatches(matches, k, epsilon, dim, limit);
  return 0;
}

int CmdKnn(int argc, char** argv) {
  std::size_t k = 0;
  return FlagK(argc, argv, &k) ? CmdQuery(argc, argv, k) : 1;
}

int CmdDot(int argc, char** argv) {
  const StatusOr<seqdb::SequenceDatabase> db = LoadDb(argc, argv);
  if (!db.ok()) return 1;
  IndexOptions options;
  suffixtree::DotOptions dot;
  if (!IndexOptionsFromFlags(argc, argv, &options) ||
      !FlagCount(argc, argv, "--categories", 8, &options.num_categories) ||
      !FlagCount(argc, argv, "--max-nodes", 64, &dot.max_nodes)) {
    return 1;
  }
  // No --index, so this builds the in-memory tree a search would use.
  const StatusOr<Index> index = OpenOrBuildIndex(argv[2], *db, options);
  if (!index.ok()) return 1;
  const suffixtree::TreeView& tree = *index->snapshot()->tiers()[0]->view();
  std::fputs(suffixtree::ToDot(tree, dot).c_str(), stdout);
  return 0;
}

/// One subcommand and the flags it takes: `value_flags` are followed by
/// a value, `switches` stand alone.
struct Command {
  std::string_view name;
  int (*run)(int, char**);
  std::vector<std::string_view> value_flags;
  std::vector<std::string_view> switches;
};

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  // --simd is taken by every command.
  static const Command kCommands[] = {
      {"generate",
       CmdGenerate,
       {"--simd", "--kind", "--out", "--n", "--len", "--seed"},
       {}},
      {"info", CmdInfo, {"--simd"}, {}},
      {"build",
       CmdBuild,
       {"--simd", "--index", "--kind", "--categories", "--method"},
       {}},
      {"search",
       [](int argc, char** argv) { return CmdQuery(argc, argv, 0); },
       {"--simd", "--query", "--epsilon", "--kind", "--categories",
        "--method", "--index", "--limit", "--threads", "--band", "--multi"},
       {"--scan", "--no-lb", "--stats"}},
      {"knn",
       CmdKnn,
       {"--simd", "--query", "--k", "--kind", "--categories", "--method",
        "--index", "--threads", "--band", "--multi"},
       {"--no-lb", "--stats"}},
      {"dot",
       CmdDot,
       {"--simd", "--kind", "--categories", "--method", "--max-nodes"},
       {}},
  };
  const Command* command = nullptr;
  for (const Command& c : kCommands) {
    if (c.name == argv[1]) command = &c;
  }
  if (command == nullptr ||
      !OnlyKnownFlags(argc, argv, command->value_flags, command->switches)) {
    return Usage();
  }
  if (const char* simd = FlagValue(argc, argv, "--simd", nullptr)) {
    if (!dtw::simd::SetBackend(simd)) {
      std::fprintf(stderr, "--simd %s: unknown or unavailable backend "
                   "(available:", simd);
      for (const std::string& b : dtw::simd::AvailableBackends()) {
        std::fprintf(stderr, " %s", b.c_str());
      }
      std::fprintf(stderr, ")\n");
      return 2;
    }
  }
  return command->run(argc, argv);
}

}  // namespace
}  // namespace tswarp

int main(int argc, char** argv) { return tswarp::Main(argc, argv); }
