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

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "core/index.h"
#include "core/seq_scan.h"
#include "dtw/simd.h"
#include "storage/buffer_manager.h"
#include "datagen/generators.h"
#include "multivariate/multi_index.h"
#include "suffixtree/dot_export.h"

namespace tswarp {
namespace {

using core::Index;
using core::IndexKind;
using core::IndexOptions;
using core::Match;

const char* FlagValue(int argc, char** argv, const char* flag,
                      const char* fallback) {
  for (int i = 2; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return argv[i + 1];
  }
  return fallback;
}

long FlagLong(int argc, char** argv, const char* flag, long fallback) {
  const char* v = FlagValue(argc, argv, flag, nullptr);
  return v == nullptr ? fallback : std::atol(v);
}

double FlagDouble(int argc, char** argv, const char* flag, double fallback) {
  const char* v = FlagValue(argc, argv, flag, nullptr);
  return v == nullptr ? fallback : std::atof(v);
}

// --threads must be a non-negative count; a negative value would wrap to a
// huge std::size_t. Returns false (after printing) on a bad value.
bool FlagThreads(int argc, char** argv, std::size_t* out) {
  const long raw = FlagLong(argc, argv, "--threads", 0);
  if (raw < 0) {
    std::fprintf(stderr, "--threads must be >= 0 (got %ld)\n", raw);
    return false;
  }
  *out = static_cast<std::size_t>(raw);
  return true;
}

// --band must be in [0, |Q|]: negative values would wrap, and a band wider
// than the query adds no legal warping paths — it only degenerates the
// query envelope, so treat it as a usage error rather than silently
// accepting it. 0 means unconstrained warping.
bool FlagBand(int argc, char** argv, std::size_t query_length, Pos* out) {
  const long raw = FlagLong(argc, argv, "--band", 0);
  if (raw < 0) {
    std::fprintf(stderr, "--band must be >= 0 (got %ld)\n", raw);
    return false;
  }
  if (static_cast<std::size_t>(raw) > query_length) {
    std::fprintf(stderr,
                 "--band %ld exceeds the query length %zu; a band wider "
                 "than the query is meaningless (use --band 0 for "
                 "unconstrained warping)\n",
                 raw, query_length);
    return false;
  }
  *out = static_cast<Pos>(raw);
  return true;
}

std::vector<Value> ParseQuery(const char* text) {
  std::vector<Value> out;
  if (text == nullptr) return out;
  const char* p = text;
  while (*p != '\0') {
    char* end = nullptr;
    const double v = std::strtod(p, &end);
    if (end == p) break;
    out.push_back(v);
    p = (*end == ',') ? end + 1 : end;
  }
  return out;
}

int Usage() {
  std::fprintf(stderr,
               "usage: tswarp_cli <generate|info|build|search|knn|dot> "
               "[args]\n"
               "  generate --kind stock|walk|ecg --out FILE [--n N] "
               "[--len L] [--seed S]\n"
               "  info DB\n"
               "  build DB --index PATH [--kind st|stc|sstc] "
               "[--categories C] [--method el|me|km] [--pool-pages P] "
               "[--pool-shards S] [--eviction lru|clock] [--readahead R] "
               "[--io mmap|buffered] [--no-summaries]\n"
               "  search DB --query v1,v2,... --epsilon E [--kind ...] "
               "[--categories C] [--index PATH] [--scan] [--limit N] "
               "[--threads T] [--band B] [--no-lb] [--no-summaries] "
               "[--approx-factor F] [--stats] [--multi D] "
               "[--pool-pages P] [--pool-shards S] [--eviction lru|clock] "
               "[--readahead R] [--io mmap|buffered]\n"
               "  knn DB --query v1,v2,... --k K [--kind ...] "
               "[--categories C] [--threads T] [--band B] [--no-lb] "
               "[--no-summaries] [--approx-factor F] [--stats] "
               "[--multi D]\n"
               "  dot DB [--categories C] [--max-nodes N]\n"
               "--multi D reads DB as D-dimensional sequences (flattened "
               "element-major; every sequence and the query must have a "
               "multiple of D values). --kind stc = dense grid index, "
               "sstc = sparse; st has no multivariate analogue.\n"
               "--simd avx2|sse2|neon|scalar (any command) pins the DTW "
               "kernel backend, overriding auto-detection and the "
               "TSWARP_SIMD environment variable.\n"
               "--no-summaries disables the node-summary screen; "
               "--approx-factor F (>= 1) is its recall dial — 1 is exact, "
               "larger prunes harder and may drop matches (see "
               "docs/tuning.md).\n");
  return 2;
}

StatusOr<seqdb::SequenceDatabase> LoadDb(int argc, char** argv) {
  if (argc < 3) return Status::InvalidArgument("missing database path");
  return seqdb::SequenceDatabase::Load(argv[2]);
}

bool HasFlag(int argc, char** argv, const char* flag) {
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return true;
  }
  return false;
}

void PrintPoolLine(const char* name,
                   const storage::BufferManager::Stats& s) {
  std::printf("pool %-7s hits %llu, misses %llu, readaheads %llu, "
              "evictions %llu, writebacks %llu, overflow-pins %llu, "
              "shard-conflicts %llu\n",
              name, static_cast<unsigned long long>(s.hits),
              static_cast<unsigned long long>(s.misses),
              static_cast<unsigned long long>(s.readaheads),
              static_cast<unsigned long long>(s.evictions),
              static_cast<unsigned long long>(s.writebacks),
              static_cast<unsigned long long>(s.overflow_pins),
              static_cast<unsigned long long>(s.shard_conflicts));
}

/// Prints the merged traversal counters of one search. Shared by the
/// univariate and multivariate paths: both run core::SearchDriver, so the
/// counters mean the same thing in either mode. The verification counters
/// are per start: "starts" were scanned (answers emitted, on exact ST
/// trees), "endpoint-rejected" ended at their first element, "lb-cut"
/// were ended by the running bound (endpoint cuts included) out of
/// "lb-screened", and "exact scans" built at least one exact row.
void PrintStatsCounters(const core::SearchStats& stats) {
  std::printf(
      "stats: nodes %llu, rows %llu (+%llu replayed), pruned %llu, "
      "starts %llu, endpoint-rejected %llu, lb-screened %llu, "
      "lb-cut %llu, exact scans %llu\n",
      static_cast<unsigned long long>(stats.nodes_visited),
      static_cast<unsigned long long>(stats.rows_pushed),
      static_cast<unsigned long long>(stats.replayed_rows),
      static_cast<unsigned long long>(stats.branches_pruned),
      static_cast<unsigned long long>(stats.candidates),
      static_cast<unsigned long long>(stats.endpoint_rejections),
      static_cast<unsigned long long>(stats.lb_invocations),
      static_cast<unsigned long long>(stats.lb_pruned),
      static_cast<unsigned long long>(stats.exact_dtw_calls));
  if (stats.summary_lb_invocations > 0 ||
      stats.nodes_pruned_by_summary > 0) {
    std::printf("summaries: screened %llu edges, pruned %llu subtrees\n",
                static_cast<unsigned long long>(stats.summary_lb_invocations),
                static_cast<unsigned long long>(
                    stats.nodes_pruned_by_summary));
  }
  if (stats.tasks_executed > 0) {
    // Scheduler counters appear only for parallel searches (num_threads
    // >= 1); steal probes are a process-wide contention signal, not an
    // exact per-query count (see core/match.h).
    std::printf("scheduler: tasks %llu (%llu stolen), steal probes %llu\n",
                static_cast<unsigned long long>(stats.tasks_executed),
                static_cast<unsigned long long>(stats.tasks_stolen),
                static_cast<unsigned long long>(stats.steal_attempts));
  }
}

/// Counters plus the per-tier shape of the snapshot searched (one line for
/// a monolithic index; base + sealed + memtable when tiered) and, for
/// disk-backed indexes, the per-region buffer-manager cache behavior.
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
    const suffixtree::DiskSuffixTree& tree = *index.disk_tree();
    std::printf("io mode: %s (bundle format v%u)\n",
                storage::IoModeToString(tree.io_mode()),
                tree.format_version());
    if (tree.io_mode() == storage::IoMode::kMmap) {
      const core::MappedIoStats mapped = index.MappedStats();
      std::printf("mapped: %llu bytes (%llu resident), zero-copy — no "
                  "buffer pool on the read path\n",
                  static_cast<unsigned long long>(mapped.mapped_bytes),
                  static_cast<unsigned long long>(mapped.resident_bytes));
    } else {
      std::printf("pool config: %zu pages x 2 regions, %zu shards, %s "
                  "eviction\n",
                  index.options().disk_pool_pages, tree.pool_shards(),
                  storage::EvictionPolicyKindToString(tree.pool_eviction()));
    }
    // All-zero counters under mmap: the zero-copy path never pins.
    const suffixtree::RegionStats pool = tree.PoolStats();
    PrintPoolLine("nodes:", pool.nodes);
    PrintPoolLine("occs:", pool.occs);
    PrintPoolLine("total:", pool.Total());
  }
}

/// Parses the buffer-manager flags into `options`. They tune the disk
/// pool, so all of them require --index (the disk-backed mode); returns
/// false (after printing) on a bad value or a missing --index.
bool ApplyPoolFlags(int argc, char** argv, IndexOptions* options) {
  const bool has_any = FlagValue(argc, argv, "--pool-pages", nullptr) !=
                           nullptr ||
                       FlagValue(argc, argv, "--pool-shards", nullptr) !=
                           nullptr ||
                       FlagValue(argc, argv, "--eviction", nullptr) !=
                           nullptr ||
                       FlagValue(argc, argv, "--readahead", nullptr) !=
                           nullptr;
  if (!has_any) return true;
  if (options->disk_path.empty()) {
    std::fprintf(stderr,
                 "--pool-pages/--pool-shards/--eviction/--readahead tune "
                 "the disk buffer manager and are only meaningful with "
                 "--index PATH\n");
    return false;
  }
  const long pages =
      FlagLong(argc, argv, "--pool-pages",
               static_cast<long>(options->disk_pool_pages));
  if (pages < 1) {
    std::fprintf(stderr, "--pool-pages must be >= 1 (got %ld)\n", pages);
    return false;
  }
  options->disk_pool_pages = static_cast<std::size_t>(pages);
  const long shards =
      FlagLong(argc, argv, "--pool-shards",
               static_cast<long>(options->disk_pool_shards));
  if (shards < 0) {
    std::fprintf(stderr, "--pool-shards must be >= 0, 0 = auto (got %ld)\n",
                 shards);
    return false;
  }
  options->disk_pool_shards = static_cast<std::size_t>(shards);
  const char* eviction = FlagValue(argc, argv, "--eviction", nullptr);
  if (eviction != nullptr &&
      !storage::ParseEvictionPolicyKind(eviction,
                                        &options->disk_eviction)) {
    std::fprintf(stderr, "--eviction must be lru or clock (got %s)\n",
                 eviction);
    return false;
  }
  const long readahead =
      FlagLong(argc, argv, "--readahead",
               static_cast<long>(options->disk_readahead_pages));
  if (readahead < 0) {
    std::fprintf(stderr, "--readahead must be >= 0 pages (got %ld)\n",
                 readahead);
    return false;
  }
  options->disk_readahead_pages = static_cast<std::size_t>(readahead);
  return true;
}

/// Parses --io mmap|buffered into `options`. Like the pool flags it only
/// makes sense for a disk-backed index; returns false (after printing) on
/// a bad value or a missing --index.
bool ApplyIoFlag(int argc, char** argv, IndexOptions* options) {
  const char* io = FlagValue(argc, argv, "--io", nullptr);
  if (io == nullptr) return true;
  if (options->disk_path.empty()) {
    std::fprintf(stderr,
                 "--io selects the disk read path and is only meaningful "
                 "with --index PATH\n");
    return false;
  }
  const StatusOr<storage::IoMode> mode = storage::ParseIoMode(io);
  if (!mode.ok()) {
    std::fprintf(stderr, "--io: %s\n", mode.status().ToString().c_str());
    return false;
  }
  options->disk_io_mode = *mode;
  return true;
}

IndexOptions OptionsFromFlags(int argc, char** argv) {
  IndexOptions options;
  const std::string kind = FlagValue(argc, argv, "--kind", "sstc");
  if (kind == "st") {
    options.kind = IndexKind::kSuffixTree;
  } else if (kind == "stc") {
    options.kind = IndexKind::kCategorized;
  } else {
    options.kind = IndexKind::kSparse;
  }
  const std::string method = FlagValue(argc, argv, "--method", "me");
  if (method == "el") {
    options.method = categorize::Method::kEqualLength;
  } else if (method == "km") {
    options.method = categorize::Method::kKMeans;
  } else {
    options.method = categorize::Method::kMaxEntropy;
  }
  options.num_categories =
      static_cast<std::size_t>(FlagLong(argc, argv, "--categories", 40));
  const char* index_path = FlagValue(argc, argv, "--index", nullptr);
  if (index_path != nullptr) options.disk_path = index_path;
  options.node_summaries = !HasFlag(argc, argv, "--no-summaries");
  return options;
}

// --no-summaries turns the node-summary screen off (build: skip building
// them; search: skip consulting them); --approx-factor F (>= 1) is the
// recall dial — 1 is exact, larger prunes more aggressively and may drop
// matches. Returns false (after printing) on a bad factor.
bool ApplySummaryFlags(int argc, char** argv,
                       core::QueryOptions* query_options) {
  query_options->use_node_summaries = !HasFlag(argc, argv, "--no-summaries");
  const double factor = FlagDouble(argc, argv, "--approx-factor", 1.0);
  if (!(factor >= 1.0)) {
    std::fprintf(stderr,
                 "--approx-factor must be >= 1 (1 = exact; got %g)\n",
                 factor);
    return false;
  }
  query_options->approx_factor = factor;
  return true;
}

// --multi D: read the database as D-dimensional multivariate sequences.
// 0 (the default, flag absent) means univariate. Returns false (after
// printing) on a bad value.
bool FlagMulti(int argc, char** argv, std::size_t* out) {
  const long raw = FlagLong(argc, argv, "--multi", 0);
  if (raw < 0) {
    std::fprintf(stderr, "--multi must be >= 1 dimensions (got %ld)\n", raw);
    return false;
  }
  *out = static_cast<std::size_t>(raw);
  return true;
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

/// Multivariate search/k-NN (`--multi D`): grid-cell index over the
/// reinterpreted database, searched through the same core::SearchDriver as
/// the univariate modes — so --threads, --band, --no-lb and --stats carry
/// over unchanged. `k == 0` runs a range search with `epsilon`.
int RunMultiSearch(int argc, char** argv, const seqdb::SequenceDatabase& db,
                   const std::vector<Value>& query, std::size_t dim,
                   Value epsilon, std::size_t k, std::size_t limit) {
  if (query.size() % dim != 0) {
    std::fprintf(stderr,
                 "--multi %zu: the query has %zu values, not a multiple "
                 "of the dimension\n",
                 dim, query.size());
    return 1;
  }
  const std::size_t query_len = query.size() / dim;
  if (FlagValue(argc, argv, "--index", nullptr) != nullptr) {
    std::fprintf(stderr, "--multi indexes are in-memory only (no --index)\n");
    return 1;
  }
  std::optional<mv::MultiSequenceDatabase> mdb;
  if (!BuildMultiDb(db, dim, &mdb)) return 1;

  core::QueryOptions query_options;
  if (!FlagThreads(argc, argv, &query_options.num_threads)) return 1;
  if (!FlagBand(argc, argv, query_len, &query_options.band)) return 1;
  query_options.use_lower_bound = !HasFlag(argc, argv, "--no-lb");

  std::vector<Match> matches;
  if (k == 0 && HasFlag(argc, argv, "--scan")) {
    matches = mv::MultiSeqScan(*mdb, query, query_len, epsilon,
                               query_options.band);
  } else {
    mv::MultiIndexOptions options;
    const std::string kind = FlagValue(argc, argv, "--kind", "sstc");
    if (kind == "st") {
      std::fprintf(stderr,
                   "--kind st (exact values) has no multivariate analogue; "
                   "use --kind stc or sstc with --multi\n");
      return 1;
    }
    options.sparse = kind != "stc";
    if (query_options.band != 0 && options.sparse) {
      std::fprintf(stderr,
                   "--band needs a dense index (--kind stc): sparse suffix "
                   "recovery is unsound under a band\n");
      return 1;
    }
    const long categories = FlagLong(argc, argv, "--categories", 8);
    if (categories < 1) {
      std::fprintf(stderr, "--categories must be >= 1 (got %ld)\n",
                   categories);
      return 1;
    }
    options.categories_per_dim = static_cast<std::size_t>(categories);
    auto index = mv::MultiIndex::Build(&*mdb, options);
    if (!index.ok()) {
      std::fprintf(stderr, "index failed: %s\n",
                   index.status().ToString().c_str());
      return 1;
    }
    core::SearchStats stats;
    matches = k == 0 ? index->Search(query, query_len, epsilon,
                                     query_options, &stats)
                     : index->SearchKnn(query, query_len, k, query_options,
                                        &stats);
    if (HasFlag(argc, argv, "--stats")) PrintStatsCounters(stats);
  }
  if (k == 0) {
    std::printf("%zu matches (epsilon %.3f, dim %zu)\n", matches.size(),
                epsilon, dim);
  } else {
    std::printf("%zu nearest subsequences (dim %zu):\n", matches.size(),
                dim);
  }
  for (std::size_t i = 0; i < matches.size() && i < limit; ++i) {
    const Match& m = matches[i];
    std::printf("  S%u[%u..%u] len %u  D_tw %.4f\n", m.seq, m.start,
                m.start + m.len - 1, m.len, m.distance);
  }
  if (matches.size() > limit) {
    std::printf("  ... %zu more (raise --limit)\n", matches.size() - limit);
  }
  return 0;
}

int CmdGenerate(int argc, char** argv) {
  const std::string kind = FlagValue(argc, argv, "--kind", "stock");
  const char* out = FlagValue(argc, argv, "--out", nullptr);
  if (out == nullptr) return Usage();
  const auto n = static_cast<std::size_t>(FlagLong(argc, argv, "--n", 0));
  const auto len = static_cast<std::size_t>(FlagLong(argc, argv, "--len",
                                                     0));
  const auto seed =
      static_cast<std::uint64_t>(FlagLong(argc, argv, "--seed", 7));

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
  auto db = LoadDb(argc, argv);
  if (!db.ok()) {
    std::fprintf(stderr, "%s\n", db.status().ToString().c_str());
    return 1;
  }
  const auto [lo, hi] = db->ValueRange();
  std::printf("sequences:      %zu\n", db->size());
  std::printf("elements:       %zu\n", db->TotalElements());
  std::printf("avg length:     %.1f\n", db->AverageLength());
  std::printf("value range:    [%.4f, %.4f]\n", lo, hi);
  std::printf("data bytes:     %zu\n", db->DataBytes());
  return 0;
}

int CmdBuild(int argc, char** argv) {
  auto db = LoadDb(argc, argv);
  if (!db.ok()) {
    std::fprintf(stderr, "%s\n", db.status().ToString().c_str());
    return 1;
  }
  IndexOptions options = OptionsFromFlags(argc, argv);
  if (options.disk_path.empty()) {
    std::fprintf(stderr, "build requires --index PATH\n");
    return 2;
  }
  if (!ApplyPoolFlags(argc, argv, &options)) return 1;
  if (!ApplyIoFlag(argc, argv, &options)) return 1;
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
  std::printf("bundle:         %s.{meta,nodes,occs,labels,index}\n",
              options.disk_path.c_str());
  return 0;
}

int CmdSearch(int argc, char** argv) {
  auto db = LoadDb(argc, argv);
  if (!db.ok()) {
    std::fprintf(stderr, "%s\n", db.status().ToString().c_str());
    return 1;
  }
  const std::vector<Value> query =
      ParseQuery(FlagValue(argc, argv, "--query", nullptr));
  if (query.empty()) return Usage();
  const Value epsilon = FlagDouble(argc, argv, "--epsilon", 10.0);
  const auto limit =
      static_cast<std::size_t>(FlagLong(argc, argv, "--limit", 20));
  std::size_t multi_dim = 0;
  if (!FlagMulti(argc, argv, &multi_dim)) return 1;
  if (multi_dim != 0) {
    return RunMultiSearch(argc, argv, *db, query, multi_dim, epsilon,
                          /*k=*/0, limit);
  }

  std::vector<Match> matches;
  const bool scanned = HasFlag(argc, argv, "--scan");
  if (scanned) {
    core::SeqScanOptions scan_options;
    if (!FlagBand(argc, argv, query.size(), &scan_options.band)) return 1;
    scan_options.use_lower_bound = !HasFlag(argc, argv, "--no-lb");
    matches = core::SeqScan(*db, query, epsilon, scan_options);
  } else {
    IndexOptions options = OptionsFromFlags(argc, argv);
    if (!ApplyPoolFlags(argc, argv, &options)) return 1;
  if (!ApplyIoFlag(argc, argv, &options)) return 1;
    // Open-or-build in one expression: Index is not move-assignable (the
    // snapshot handle has exactly one sanctioned swap path), so build the
    // StatusOr once instead of reassigning it.
    StatusOr<Index> index = [&]() -> StatusOr<Index> {
      if (!options.disk_path.empty()) {
        StatusOr<Index> opened = Index::Open(&*db, options);
        if (opened.ok()) return opened;
      }
      return Index::Build(&*db, options);
    }();
    if (!index.ok()) {
      std::fprintf(stderr, "index failed: %s\n",
                   index.status().ToString().c_str());
      return 1;
    }
    core::QueryOptions query_options;
    if (!FlagThreads(argc, argv, &query_options.num_threads)) return 1;
    if (!FlagBand(argc, argv, query.size(), &query_options.band)) return 1;
    query_options.use_lower_bound = !HasFlag(argc, argv, "--no-lb");
    if (!ApplySummaryFlags(argc, argv, &query_options)) return 1;
    if (query_options.band != 0 &&
        index->options().kind == IndexKind::kSparse) {
      std::fprintf(stderr,
                   "--band needs a dense index (--kind stc or st): sparse "
                   "suffix recovery is unsound under a band\n");
      return 1;
    }
    core::SearchStats stats;
    matches = index->Search(query, epsilon, query_options, &stats);
    if (HasFlag(argc, argv, "--stats")) PrintSearchStats(*index, stats);
  }
  std::printf("%zu matches (epsilon %.3f)\n", matches.size(), epsilon);
  for (std::size_t i = 0; i < matches.size() && i < limit; ++i) {
    const Match& m = matches[i];
    std::printf("  S%u[%u..%u] len %u  D_tw %.4f\n", m.seq, m.start,
                m.start + m.len - 1, m.len, m.distance);
  }
  if (matches.size() > limit) {
    std::printf("  ... %zu more (raise --limit)\n", matches.size() - limit);
  }
  return 0;
}

int CmdKnn(int argc, char** argv) {
  auto db = LoadDb(argc, argv);
  if (!db.ok()) {
    std::fprintf(stderr, "%s\n", db.status().ToString().c_str());
    return 1;
  }
  const std::vector<Value> query =
      ParseQuery(FlagValue(argc, argv, "--query", nullptr));
  if (query.empty()) return Usage();
  const auto k = static_cast<std::size_t>(FlagLong(argc, argv, "--k", 5));
  std::size_t multi_dim = 0;
  if (!FlagMulti(argc, argv, &multi_dim)) return 1;
  if (multi_dim != 0) {
    if (k == 0) {
      std::fprintf(stderr, "--k must be >= 1\n");
      return 1;
    }
    return RunMultiSearch(argc, argv, *db, query, multi_dim, /*epsilon=*/0.0,
                          k, /*limit=*/k);
  }
  IndexOptions options = OptionsFromFlags(argc, argv);
  if (!ApplyPoolFlags(argc, argv, &options)) return 1;
  if (!ApplyIoFlag(argc, argv, &options)) return 1;
  auto index = Index::Build(&*db, options);
  if (!index.ok()) {
    std::fprintf(stderr, "index failed: %s\n",
                 index.status().ToString().c_str());
    return 1;
  }
  core::QueryOptions query_options;
  if (!FlagThreads(argc, argv, &query_options.num_threads)) return 1;
  if (!FlagBand(argc, argv, query.size(), &query_options.band)) return 1;
  query_options.use_lower_bound = !HasFlag(argc, argv, "--no-lb");
  if (!ApplySummaryFlags(argc, argv, &query_options)) return 1;
  if (query_options.band != 0 &&
      index->options().kind == IndexKind::kSparse) {
    std::fprintf(stderr,
                 "--band needs a dense index (--kind stc or st): sparse "
                 "suffix recovery is unsound under a band\n");
    return 1;
  }
  core::SearchStats stats;
  const std::vector<Match> knn =
      index->SearchKnn(query, k, query_options, &stats);
  if (HasFlag(argc, argv, "--stats")) PrintSearchStats(*index, stats);
  std::printf("%zu nearest subsequences:\n", knn.size());
  for (const Match& m : knn) {
    std::printf("  S%u[%u..%u] len %u  D_tw %.4f\n", m.seq, m.start,
                m.start + m.len - 1, m.len, m.distance);
  }
  return 0;
}

int CmdDot(int argc, char** argv) {
  auto db = LoadDb(argc, argv);
  if (!db.ok()) {
    std::fprintf(stderr, "%s\n", db.status().ToString().c_str());
    return 1;
  }
  IndexOptions options = OptionsFromFlags(argc, argv);
  options.disk_path.clear();
  options.num_categories =
      static_cast<std::size_t>(FlagLong(argc, argv, "--categories", 8));
  // Build a small in-memory categorized tree and dump it. (Reaching the
  // tree requires the suffixtree API directly.)
  const std::vector<Value> values = categorize::CollectValues(*db);
  auto alphabet = categorize::Build(options.method, values,
                                    options.num_categories, options.seed);
  if (!alphabet.ok()) {
    std::fprintf(stderr, "%s\n", alphabet.status().ToString().c_str());
    return 1;
  }
  categorize::CategorizedDatabase converted =
      categorize::ConvertDatabase(*db, &*alphabet);
  const suffixtree::SymbolDatabase symbols(std::move(converted.sequences));
  suffixtree::BuildOptions build;
  build.sparse = options.kind == IndexKind::kSparse;
  const suffixtree::SuffixTree tree = BuildSuffixTree(symbols, build);
  suffixtree::DotOptions dot;
  dot.max_nodes =
      static_cast<std::size_t>(FlagLong(argc, argv, "--max-nodes", 64));
  std::fputs(suffixtree::ToDot(tree, dot).c_str(), stdout);
  return 0;
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
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
  const std::string cmd = argv[1];
  if (cmd == "generate") return CmdGenerate(argc, argv);
  if (cmd == "info") return CmdInfo(argc, argv);
  if (cmd == "build") return CmdBuild(argc, argv);
  if (cmd == "search") return CmdSearch(argc, argv);
  if (cmd == "knn") return CmdKnn(argc, argv);
  if (cmd == "dot") return CmdDot(argc, argv);
  return Usage();
}

}  // namespace
}  // namespace tswarp

int main(int argc, char** argv) { return tswarp::Main(argc, argv); }
