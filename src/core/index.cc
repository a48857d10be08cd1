#include "core/index.h"

#include <atomic>
#include <cstdio>
#include <cstring>
#include <memory>
#include <utility>

#include "common/logging.h"
#include "common/task_scheduler.h"
#include "core/dictionary.h"

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

// On-disk fingerprint guarding Index::Open against mismatched databases or
// options. Stored at <disk_path>.index.
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
};

constexpr std::uint64_t kIndexMagic = 0x54535749444D4554ull;  // "TSWIDMET"

IndexFingerprint MakeFingerprint(const seqdb::SequenceDatabase& db,
                                 const IndexOptions& options) {
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
  return fp;
}

Status WriteFingerprint(const std::string& path,
                        const IndexFingerprint& fp) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return Status::IOError("cannot create " + path);
  const std::size_t n = std::fwrite(&fp, sizeof(fp), 1, f);
  std::fclose(f);
  if (n != 1) return Status::IOError("short write to " + path);
  return Status::OK();
}

StatusOr<IndexFingerprint> ReadFingerprint(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::IOError("cannot open " + path);
  IndexFingerprint fp{};
  const std::size_t n = std::fread(&fp, sizeof(fp), 1, f);
  std::fclose(f);
  if (n != 1 || fp.magic != kIndexMagic) {
    return Status::Corruption("bad index fingerprint " + path);
  }
  return fp;
}

std::string FingerprintPath(const IndexOptions& options) {
  return options.disk_path + ".index";
}

}  // namespace

suffixtree::DiskTreeOptions TreeOptionsFromIndexOptions(
    const IndexOptions& options) {
  suffixtree::DiskTreeOptions tree;
  tree.pool_pages = options.disk_pool_pages;
  tree.pool_shards = options.disk_pool_shards;
  tree.eviction = options.disk_eviction;
  tree.readahead_pages = options.disk_readahead_pages;
  tree.io_mode = options.disk_io_mode;
  tree.load_node_summaries = options.node_summaries;
  return tree;
}

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

  std::uint64_t skipped = 0;
  if (options.disk_path.empty()) {
    suffixtree::SuffixTreeBuilder builder(&symbols, build);
    for (SeqId id = 0; id < symbols.size(); ++id) {
      builder.InsertSequence(id);
    }
    skipped = builder.skipped_suffixes();
    tier->memory_tree = builder.Build();
    TSW_RETURN_IF_ERROR(tier->memory_tree->status());
  } else {
    suffixtree::DiskBuildOptions disk;
    disk.build = build;
    disk.batch_sequences = options.disk_batch_sequences;
    disk.tree = TreeOptionsFromIndexOptions(options);
    TSW_ASSIGN_OR_RETURN(
        tier->disk_tree,
        suffixtree::BuildDiskTree(symbols, options.disk_path, disk));
    skipped = symbols.TotalSymbols() - tier->disk_tree->NumOccurrences();
  }
  // 3. Per-node summaries (the subtree-hull pre-filter). In-memory trees
  // keep them beside the tier; disk bundles persist them as the optional
  // fourth section — attach, then reopen so the served tree reads the
  // same bytes a later Open() would.
  if (options.node_summaries) {
    const std::vector<suffixtree::SymbolHull> hulls = TierSymbolHulls(*tier);
    if (options.disk_path.empty()) {
      tier->memory_summaries =
          suffixtree::BuildNodeSummaries(*tier->view(), hulls);
    } else {
      const std::vector<suffixtree::NodeSummaryRecord> records =
          suffixtree::BuildNodeSummaries(*tier->disk_tree, hulls);
      tier->disk_tree.reset();  // Release the bundle before rewriting it.
      TSW_RETURN_IF_ERROR(
          suffixtree::AttachNodeSummaries(options.disk_path, records));
      TSW_ASSIGN_OR_RETURN(
          tier->disk_tree,
          suffixtree::DiskSuffixTree::Open(options.disk_path,
                                           TreeOptionsFromIndexOptions(options)));
    }
  }
  tier->info = ComputeTierInfo(*tier);
  base_info.skipped_suffixes = skipped;

  if (!options.disk_path.empty()) {
    TSW_RETURN_IF_ERROR(WriteFingerprint(FingerprintPath(options),
                                         MakeFingerprint(*db, options)));
  }
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
  TSW_ASSIGN_OR_RETURN(const IndexFingerprint fp,
                       ReadFingerprint(FingerprintPath(options)));
  const IndexFingerprint want = MakeFingerprint(*db, options);
  if (std::memcmp(&fp, &want, sizeof(fp)) != 0) {
    return Status::FailedPrecondition(
        "index fingerprint mismatch: bundle was built with different "
        "options or a different database");
  }

  auto tier = std::make_shared<Tier>();
  tier->first_seq = 0;
  tier->db = db;
  IndexBuildInfo base_info;
  suffixtree::SymbolDatabase symbols;
  TSW_RETURN_IF_ERROR(DeriveSymbols(*db, options, &symbols, &tier->alphabet,
                                    &tier->symbol_values, &base_info));
  TSW_ASSIGN_OR_RETURN(
      tier->disk_tree,
      suffixtree::DiskSuffixTree::Open(options.disk_path,
                                       TreeOptionsFromIndexOptions(options)));
  tier->info = ComputeTierInfo(*tier);
  base_info.skipped_suffixes =
      symbols.TotalSymbols() - tier->disk_tree->NumOccurrences();
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
  // Aggregate the additive counters over the tiers; the base_info supplies
  // the non-additive fields (num_categories) and skipped_suffixes, which
  // stays exact because appended tiers re-add their own skip counts via
  // `elements - occurrences` below.
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

std::optional<suffixtree::RegionStats> IndexSnapshot::PoolStats() const {
  bool any = false;
  suffixtree::RegionStats total{};
  for (const auto& tier : tiers_) {
    if (tier->disk_tree == nullptr) continue;
    const suffixtree::RegionStats s = tier->disk_tree->PoolStats();
    if (!any) {
      total = s;
    } else {
      total.nodes += s.nodes;
      total.occs += s.occs;
    }
    any = true;
  }
  if (!any) return std::nullopt;
  return total;
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

std::vector<TierSearchEntry> MakeEntries(const IndexSnapshot& snapshot,
                                         const QueryOptions& query_options) {
  const bool exact = snapshot.options().kind == IndexKind::kSuffixTree;
  std::vector<TierSearchEntry> entries;
  entries.reserve(snapshot.tiers().size());
  for (const std::shared_ptr<const Tier>& tier : snapshot.tiers()) {
    TierSearchEntry entry;
    entry.config.tree = tier->view();
    entry.config.db = tier->db;
    entry.config.exact = exact;
    entry.config.sparse = snapshot.options().kind == IndexKind::kSparse;
    entry.config.alphabet =
        tier->alphabet.has_value() ? &*tier->alphabet : nullptr;
    entry.config.symbol_values = exact ? &tier->symbol_values : nullptr;
    entry.config.prune = query_options.prune;
    entry.config.use_lower_bound = query_options.use_lower_bound;
    entry.config.band = query_options.band;
    entry.config.num_threads = query_options.num_threads;
    entry.config.cancel = query_options.cancel;
    entry.config.approx_factor = query_options.approx_factor;
    if (query_options.use_node_summaries) {
      entry.config.summaries = tier->summaries();
    }
    entry.seq_base = tier->first_seq;
    entries.push_back(std::move(entry));
  }
  return entries;
}

}  // namespace

std::vector<Match> IndexSnapshot::Search(std::span<const Value> query,
                                         Value epsilon,
                                         const QueryOptions& query_options,
                                         SearchStats* stats) const {
  return TierSearch(MakeEntries(*this, query_options), query, epsilon,
                    stats);
}

std::vector<Match> IndexSnapshot::SearchKnn(std::span<const Value> query,
                                            std::size_t k,
                                            const QueryOptions& query_options,
                                            SearchStats* stats) const {
  return TierSearchKnn(MakeEntries(*this, query_options), query, k, stats);
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

  // Batch coalescing: one fork/join scope on the shared work-stealing
  // scheduler, one task per query. Idle workers steal whole queries first;
  // stealing *within* a query would need per-query parallel mode, which is
  // deliberately off here so each query's stats stay bit-identical to its
  // serial run (per_query.num_threads == 0 above).
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
