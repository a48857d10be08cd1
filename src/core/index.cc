#include "core/index.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstring>
#include <memory>
#include <utility>

#include "common/logging.h"
#include "common/task_scheduler.h"
#include "core/dictionary.h"
#include "core/distance_models.h"
#include "core/search_driver.h"
#include "dtw/envelope.h"

namespace tswarp::core {

const char* IndexKindToString(IndexKind kind) {
  switch (kind) {
    case IndexKind::kSuffixTree:
      return "ST";
    case IndexKind::kCategorized:
      return "ST_C";
    case IndexKind::kSparse:
      return "SST_C";
  }
  return "?";
}

namespace {

// The fingerprint a disk index stores in its bundle header, guarding
// Index::Open against mismatched databases, options or alphabets.
struct IndexFingerprint {
  std::uint64_t magic;
  std::uint32_t kind;
  std::uint32_t method;
  std::uint64_t num_categories;
  std::uint32_t min_suffix_length;
  std::uint32_t max_suffix_length;
  std::uint64_t seed;
  std::uint64_t db_sequences;
  std::uint64_t db_elements;
  std::uint64_t db_content_hash;  // ContentHash of the database.
  // HashValues of the alphabet's boundaries (ST_C, SST_C) or of the
  // dictionary's symbol values (ST): what the symbols mean.
  std::uint64_t symbols_hash;
};
static_assert(sizeof(IndexFingerprint) == 72);

// "TSWIDME3".
constexpr std::uint64_t kIndexMagic = 0x54535749444D4533ull;

/// Mixes `x` into the hash `h`. Each step is a bijection of the state, so
/// one differing word always shows.
void Mix(std::uint64_t* h, std::uint64_t x) {
  *h = (*h ^ x) * 0xBF58476D1CE4E5B9ull;
  *h ^= *h >> 31;
}

/// Hash of the count and every value's bits, in order.
std::uint64_t HashValues(std::span<const Value> values) {
  std::uint64_t h = 0;
  Mix(&h, values.size());
  for (const Value v : values) Mix(&h, std::bit_cast<std::uint64_t>(v));
  return h;
}

/// Hash of every sequence's length and every value's bits, in order.
std::uint64_t ContentHash(const seqdb::SequenceDatabase& db) {
  std::uint64_t h = 0;
  for (SeqId id = 0; id < db.size(); ++id) {
    const seqdb::Sequence& seq = db.sequence(id);
    Mix(&h, seq.size());
    for (const Value v : seq) Mix(&h, std::bit_cast<std::uint64_t>(v));
  }
  return h;
}

IndexFingerprint MakeFingerprint(const seqdb::SequenceDatabase& db,
                                 const IndexOptions& options,
                                 const Tier& tier) {
  IndexFingerprint fp{};
  fp.magic = kIndexMagic;
  fp.kind = static_cast<std::uint32_t>(options.kind);
  fp.method = static_cast<std::uint32_t>(options.method);
  fp.num_categories = options.num_categories;
  fp.min_suffix_length = options.min_suffix_length;
  fp.max_suffix_length = options.max_suffix_length;
  fp.seed = options.seed;
  fp.db_sequences = db.size();
  fp.db_elements = db.TotalElements();
  fp.db_content_hash = ContentHash(db);
  fp.symbols_hash =
      HashValues(tier.alphabet ? tier.alphabet->boundaries()
                               : std::span<const Value>(tier.symbol_values));
  return fp;
}

/// Refuses a stored fingerprint that is not `want`, naming what differs.
Status CheckFingerprint(const IndexFingerprint& want,
                        const std::string& disk_path,
                        std::span<const std::byte> stored) {
  IndexFingerprint fp{};
  if (stored.size() == sizeof(fp)) std::memcpy(&fp, stored.data(), sizeof(fp));
  if (fp.magic != kIndexMagic) {
    return Status::Corruption("bad index fingerprint in " + disk_path +
                              " (damaged, or written by another build); "
                              "rebuild the index");
  }
  const auto mismatch = [&](const char* what) {
    return Status::FailedPrecondition("index fingerprint mismatch: the index "
                                      "at " + disk_path + " was built " +
                                      what);
  };
  if (fp.db_sequences != want.db_sequences ||
      fp.db_elements != want.db_elements ||
      fp.db_content_hash != want.db_content_hash) {
    return mismatch("from a different database");
  }
  if (fp.symbols_hash != want.symbols_hash &&
      std::memcmp(&fp, &want, offsetof(IndexFingerprint, symbols_hash)) ==
          0) {
    return mismatch("over a different alphabet (the categorizer changed); "
                    "rebuild the index");
  }
  if (std::memcmp(&fp, &want, sizeof(fp)) != 0) {
    return mismatch("with different options");
  }
  return Status::OK();
}

}  // namespace

/// Derives the discretized symbol database (and categorizer state) for
/// `db` under `options`. Deterministic: Build and Open share it.
static Status DeriveSymbols(const seqdb::SequenceDatabase& db,
                            const IndexOptions& options,
                            suffixtree::SymbolDatabase* symbols,
                            std::optional<categorize::Alphabet>* alphabet,
                            std::vector<Value>* symbol_values,
                            IndexBuildInfo* info) {
  if (options.kind == IndexKind::kSuffixTree) {
    DictionaryEncode(db, symbols, symbol_values);
  } else {
    const std::vector<Value> values = categorize::CollectValues(db);
    TSW_ASSIGN_OR_RETURN(
        categorize::Alphabet built,
        categorize::Build(options.method, values, options.num_categories,
                          options.seed));
    categorize::CategorizedDatabase converted =
        categorize::ConvertDatabase(db, &built);
    *alphabet = std::move(built);
    *symbols = suffixtree::SymbolDatabase(std::move(converted.sequences));
    info->num_categories = (*alphabet)->size();
  }
  return Status::OK();
}

StatusOr<Index> Index::Build(const seqdb::SequenceDatabase* db,
                             const IndexOptions& options) {
  if (db == nullptr) return Status::InvalidArgument("null database");
  if (db->empty()) return Status::InvalidArgument("empty database");
  if (options.kind == IndexKind::kSparse &&
      (options.min_suffix_length != 0 || options.max_suffix_length != 0)) {
    return Status::InvalidArgument(
        "length-bounded indexes require banded searches, which sparse "
        "indexes do not support (D_tw-lb2 is unsound under a band); use "
        "kCategorized with min/max_suffix_length instead");
  }

  auto tier = std::make_shared<Tier>();
  tier->first_seq = 0;
  tier->db = db;

  // 1. Discretize the element values. The symbol database is construction
  // scratch: the tree keeps its own copy of the text its labels
  // reference, so the database is dropped once the tier is assembled.
  IndexBuildInfo base_info;
  suffixtree::SymbolDatabase symbols;
  TSW_RETURN_IF_ERROR(DeriveSymbols(*db, options, &symbols, &tier->alphabet,
                                    &tier->symbol_values, &base_info));

  // 2. Build the tree (in memory, or on disk via batched binary merges).
  suffixtree::BuildOptions build;
  build.sparse = options.kind == IndexKind::kSparse;
  build.min_suffix_length = options.min_suffix_length;
  build.max_suffix_length = options.max_suffix_length;

  if (options.disk_path.empty()) {
    suffixtree::SuffixTreeBuilder builder(&symbols, build);
    for (SeqId id = 0; id < symbols.size(); ++id) {
      builder.InsertSequence(id);
    }
    tier->memory_tree = builder.Build();
    TSW_RETURN_IF_ERROR(tier->memory_tree->status());
  } else {
    suffixtree::DiskBuildOptions disk;
    disk.build = build;
    disk.batch_sequences = options.disk_batch_sequences;
    const IndexFingerprint fp = MakeFingerprint(*db, options, *tier);
    TSW_ASSIGN_OR_RETURN(
        tier->disk_tree,
        suffixtree::BuildDiskTree(symbols, options.disk_path, disk,
                                  std::as_bytes(std::span(&fp, 1))));
  }
  tier->info = ComputeTierInfo(*tier);

  Index index;
  index.snapshot_ = std::make_shared<const IndexSnapshot>(
      options, base_info,
      std::vector<std::shared_ptr<const Tier>>{std::move(tier)});
  return index;
}

StatusOr<Index> Index::Open(const seqdb::SequenceDatabase* db,
                            const IndexOptions& options) {
  if (db == nullptr || db->empty()) {
    return Status::InvalidArgument("null or empty database");
  }
  if (options.disk_path.empty()) {
    return Status::InvalidArgument("Open requires options.disk_path");
  }
  auto tier = std::make_shared<Tier>();
  tier->first_seq = 0;
  tier->db = db;
  IndexBuildInfo base_info;
  suffixtree::SymbolDatabase symbols;
  TSW_RETURN_IF_ERROR(DeriveSymbols(*db, options, &symbols, &tier->alphabet,
                                    &tier->symbol_values, &base_info));
  const IndexFingerprint want = MakeFingerprint(*db, options, *tier);
  TSW_ASSIGN_OR_RETURN(
      tier->disk_tree,
      suffixtree::DiskSuffixTree::Open(
          options.disk_path, [&](std::span<const std::byte> stored) {
            return CheckFingerprint(want, options.disk_path, stored);
          }));
  tier->info = ComputeTierInfo(*tier);
  Index index;
  index.snapshot_ = std::make_shared<const IndexSnapshot>(
      options, base_info,
      std::vector<std::shared_ptr<const Tier>>{std::move(tier)});
  return index;
}

IndexSnapshot::IndexSnapshot(IndexOptions options, IndexBuildInfo base_info,
                             std::vector<std::shared_ptr<const Tier>> tiers)
    : options_(std::move(options)),
      build_info_(base_info),
      tiers_(std::move(tiers)) {
  TSW_CHECK(!tiers_.empty());
  // Aggregate the additive counters over the tiers; base_info supplies
  // only the non-additive fields (num_categories). skipped_suffixes is
  // derived here from the totals, `elements - occurrences`, so every
  // tier's skips count, appended and merged ones included.
  build_info_.index_bytes = 0;
  build_info_.table1_bytes = 0;
  build_info_.num_nodes = 0;
  build_info_.num_occurrences = 0;
  std::uint64_t elements = 0;
  for (const std::shared_ptr<const Tier>& tier : tiers_) {
    build_info_.index_bytes += tier->info.index_bytes;
    build_info_.table1_bytes += tier->info.table1_bytes;
    build_info_.num_nodes += tier->info.nodes;
    build_info_.num_occurrences += tier->info.occurrences;
    elements += tier->info.elements;
  }
  build_info_.stored_suffixes = build_info_.num_occurrences;
  build_info_.skipped_suffixes = elements - build_info_.num_occurrences;
  build_info_.compaction_ratio =
      elements == 0 ? 0.0
                    : static_cast<double>(build_info_.skipped_suffixes) /
                          static_cast<double>(elements);
}

std::size_t IndexSnapshot::total_sequences() const {
  const Tier& last = *tiers_.back();
  return static_cast<std::size_t>(last.first_seq) + last.info.sequences;
}

bool IndexSnapshot::on_disk() const {
  for (const auto& tier : tiers_) {
    if (tier->disk_tree != nullptr) return true;
  }
  return false;
}

const suffixtree::DiskSuffixTree* IndexSnapshot::disk_tree() const {
  return tiers_.front()->disk_tree.get();
}

MappedIoStats IndexSnapshot::MappedStats() const {
  MappedIoStats stats;
  for (const auto& tier : tiers_) {
    if (tier->disk_tree == nullptr) continue;
    stats.mapped_bytes += tier->disk_tree->MappedBytes();
    stats.resident_bytes += tier->disk_tree->ResidentBytes();
  }
  return stats;
}

namespace {

/// Runs one tier's traversal into the shared context, draining its
/// counters into `sink` (written by this call only — safe when tiers run
/// concurrently).
void SearchTier(IndexKind kind, const Tier& tier, const DriverConfig& driver,
                std::span<const Value> query, QueryContext* ctx,
                SearchStats* sink) {
  if (kind == IndexKind::kSuffixTree) {
    const ExactModel model(query, &tier.symbol_values);
    SearchDriver<ExactModel>(driver, model).RunInto(ctx, sink);
    return;
  }
  TSW_CHECK(tier.alphabet.has_value())
      << "a categorized tier needs its category alphabet";
  const CategoryModel model(query, &*tier.alphabet, tier.db,
                            ctx->envelope.get());
  SearchDriver<CategoryModel>(driver, model).RunInto(ctx, sink);
}

}  // namespace

std::vector<Match> SearchTiers(
    IndexKind kind, std::span<const std::shared_ptr<const Tier>> tiers,
    std::span<const Value> query, Value epsilon, std::size_t knn_k,
    const QueryOptions& query_options, SearchStats* stats) {
  TSW_CHECK(!query.empty());
  DriverConfig shared;
  shared.query_length = query.size();
  shared.query = query;
  shared.sparse = kind == IndexKind::kSparse;
  shared.prune = query_options.prune;
  shared.band = query_options.band;
  shared.num_threads = query_options.num_threads;
  shared.cancel = query_options.cancel;
  // DFS depth is bounded by the longest suffix in any tier. One shared
  // hint: the per-thread arena cache is keyed on the table shape, so
  // tiers of different depths would otherwise thrash it.
  for (const std::shared_ptr<const Tier>& tier : tiers) {
    for (SeqId id = 0; id < tier->db->size(); ++id) {
      shared.depth_hint =
          std::max(shared.depth_hint, tier->db->sequence(id).size());
    }
  }
  std::vector<DriverConfig> drivers(tiers.size(), shared);
  for (std::size_t i = 0; i < tiers.size(); ++i) {
    drivers[i].tree = tiers[i]->view();
    drivers[i].seq_base = tiers[i]->first_seq;
  }

  QueryContext ctx(epsilon, knn_k);
  // The envelope depends only on (query, band): built once, shared
  // read-only by every tier and worker. Exact rows verify nothing, so no
  // scan ever consults it there.
  if (kind != IndexKind::kSuffixTree && query_options.use_lower_bound) {
    ctx.envelope =
        std::make_unique<dtw::QueryEnvelope>(query, query_options.band);
  }

  if (query_options.num_threads == 0) {
    // Serial: tiers in order, one table, the k-NN threshold tightened by
    // each tier pruning the next.
    for (std::size_t i = 0; i < tiers.size(); ++i) {
      SearchTier(kind, *tiers[i], drivers[i], query, &ctx, &ctx.stats);
    }
  } else {
    // Parallel: one task per tier on the process-wide scheduler; each
    // tier's traversal fans out once more over its root's edges. Per-tier
    // stats sinks keep the drains race-free; merged after the join.
    TaskScheduler::Get().EnsureWorkers(query_options.num_threads);
    std::vector<SearchStats> tier_stats(tiers.size());
    TaskScope scope;
    for (std::size_t i = 0; i < tiers.size(); ++i) {
      scope.Submit([&, i] {
        SearchTier(kind, *tiers[i], drivers[i], query, &ctx, &tier_stats[i]);
      });
    }
    scope.Wait();  // Rethrows the first tier exception, if any.
    for (const SearchStats& s : tier_stats) ctx.stats.Merge(s);
    ctx.stats.tasks_executed += scope.tasks_executed();
    ctx.stats.tasks_stolen += scope.tasks_stolen();
  }

  std::vector<Match> answers = ctx.collector.Take();
  ctx.stats.answers = answers.size();
  if (stats != nullptr) *stats = ctx.stats;
  return answers;
}

std::vector<Match> IndexSnapshot::Search(std::span<const Value> query,
                                         Value epsilon,
                                         const QueryOptions& query_options,
                                         SearchStats* stats) const {
  return SearchTiers(options_.kind, tiers_, query, epsilon, /*knn_k=*/0,
                     query_options, stats);
}

std::vector<Match> IndexSnapshot::SearchKnn(std::span<const Value> query,
                                            std::size_t k,
                                            const QueryOptions& query_options,
                                            SearchStats* stats) const {
  if (k == 0) {
    if (stats != nullptr) *stats = SearchStats{};
    return {};
  }
  return SearchTiers(options_.kind, tiers_, query, /*epsilon=*/0.0, k,
                     query_options, stats);
}

std::vector<std::vector<Match>> IndexSnapshot::SearchBatch(
    const std::vector<std::vector<Value>>& queries,
    const std::vector<Value>& epsilons, const QueryOptions& query_options,
    std::vector<SearchStats>* stats) const {
  TSW_CHECK(epsilons.size() == 1 || epsilons.size() == queries.size())
      << "epsilons must hold one shared threshold or one per query";
  auto epsilon_for = [&](std::size_t i) {
    return epsilons.size() == 1 ? epsilons[0] : epsilons[i];
  };
  // Queries run serially inside; the pool parallelizes across them.
  QueryOptions per_query = query_options;
  per_query.num_threads = 0;

  std::vector<std::vector<Match>> results(queries.size());
  if (stats != nullptr) {
    stats->assign(queries.size(), SearchStats{});
  }
  if (query_options.num_threads == 0) {
    for (std::size_t i = 0; i < queries.size(); ++i) {
      results[i] = Search(queries[i], epsilon_for(i), per_query,
                          stats != nullptr ? &(*stats)[i] : nullptr);
    }
    return results;
  }

  // Batch coalescing: one fork/join scope on the shared scheduler, one
  // task per query. Splitting *within* a query would need per-query
  // parallel mode, which is deliberately off here so each query's stats
  // stay bit-identical to its serial run (per_query.num_threads == 0
  // above).
  TaskScheduler::Get().EnsureWorkers(query_options.num_threads);
  TaskScope scope;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    scope.Submit([&, i] {
      results[i] = Search(queries[i], epsilon_for(i), per_query,
                          stats != nullptr ? &(*stats)[i] : nullptr);
    });
  }
  scope.Wait();
  return results;
}

}  // namespace tswarp::core
