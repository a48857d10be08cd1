#ifndef TSWARP_CORE_INDEX_H_
#define TSWARP_CORE_INDEX_H_

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "categorize/alphabet.h"
#include "categorize/categorizer.h"
#include "common/cancellation.h"
#include "common/status.h"
#include "common/types.h"
#include "core/match.h"
#include "core/tier.h"
#include "core/tree_search.h"
#include "seqdb/sequence_database.h"
#include "suffixtree/disk_tree.h"
#include "suffixtree/suffix_tree.h"
#include "suffixtree/symbol_database.h"

namespace tswarp::core {

/// Which of the paper's index structures to build.
enum class IndexKind {
  kSuffixTree,   // ST:    exact values (dictionary-encoded), SimSearch-ST.
  kCategorized,  // ST_C:  categorized values, SimSearch-ST_C.
  kSparse,       // SST_C: categorized + sparse suffixes, SimSearch-SST_C.
};

const char* IndexKindToString(IndexKind kind);

struct IndexOptions;

/// Buffer-manager/runtime settings of `options` as DiskTreeOptions (shared
/// by Index::Build/Open and the TieredIndex background merges).
suffixtree::DiskTreeOptions TreeOptionsFromIndexOptions(
    const IndexOptions& options);

/// Build-time configuration of an Index.
struct IndexOptions {
  IndexKind kind = IndexKind::kSparse;

  /// Categorization method and category count (ignored for kSuffixTree).
  categorize::Method method = categorize::Method::kMaxEntropy;
  std::size_t num_categories = 64;

  /// Length-bounded index (paper Section 8, warping-window extension):
  /// skip suffixes shorter than min_suffix_length and truncate stored
  /// suffixes to max_suffix_length. 0 disables either bound. Only sound
  /// when searches use a band consistent with these bounds.
  Pos min_suffix_length = 0;
  Pos max_suffix_length = 0;

  /// When set, the tree is built on disk (batched binary merges) at this
  /// base path and searched through the sharded buffer manager.
  std::string disk_path;
  std::size_t disk_batch_sequences = 64;
  std::size_t disk_pool_pages = 256;

  /// Buffer-manager tuning (runtime-only: not part of the on-disk
  /// fingerprint, so one bundle can be reopened under any of these).
  /// Shards per region manager; 0 = auto, 1 = single-mutex baseline.
  std::size_t disk_pool_shards = 0;
  storage::EvictionPolicyKind disk_eviction =
      storage::EvictionPolicyKind::kLru;
  /// Sequential read-ahead window in pages; 0 disables.
  std::size_t disk_readahead_pages = 8;

  /// Read path for the finalized disk bundle (runtime-only, like the pool
  /// knobs above — not fingerprinted, so one bundle can be reopened under
  /// either mode). mmap serves queries zero-copy off the shared kernel
  /// page cache; buffered routes reads through the private BufferManager
  /// and is required for v1 bundles. Construction and merges always write
  /// (and scan intermediates) buffered regardless of this setting.
  storage::IoMode disk_io_mode = storage::IoMode::kMmap;

  /// Build per-node summaries (the subtree-hull pre-filter ahead of the
  /// filter rows; see docs/tuning.md "Node summaries & the recall dial").
  /// Runtime-only and NOT fingerprinted: a bundle built without summaries
  /// reopens fine (the screen is simply off), and a bundle with them can
  /// be reopened by a reader that ignores the section. Adds 64 bytes per
  /// tree node of index footprint when on.
  bool node_summaries = true;

  /// Seed for categorizers that need one (k-means).
  std::uint64_t seed = 1;
};

/// Summary statistics of a built index.
struct IndexBuildInfo {
  std::uint64_t index_bytes = 0;       // Stored (serialized) footprint.
  /// The paper's Table-1 index size: index_bytes with every edge label
  /// materialized instead of referenced. Computed, not stored.
  std::uint64_t table1_bytes = 0;
  std::uint64_t num_nodes = 0;
  std::uint64_t num_occurrences = 0;   // Stored suffixes.
  std::uint64_t stored_suffixes = 0;
  std::uint64_t skipped_suffixes = 0;  // Non-stored (sparse / length bound).
  double compaction_ratio = 0.0;       // r = non-stored / total (Section 6).
  std::size_t num_categories = 0;      // Actual categories after dedup.
};

/// mmap read-path statistics, summed over every mapped disk tier.
struct MappedIoStats {
  std::uint64_t mapped_bytes = 0;    // Bytes mapped into the address space.
  std::uint64_t resident_bytes = 0;  // Thereof resident in the page cache.
};

/// Per-search options.
struct QueryOptions {
  /// Sakoe-Chiba warping band; 0 = unconstrained (the paper's setting).
  Pos band = 0;
  /// Theorem-1 pruning (ablation hook).
  bool prune = true;
  /// Running lower bound (endpoint + envelope terms) of the exact
  /// per-start scans; answers are identical either way (ablation hook,
  /// see bench/ablation_lowerbound and docs/tuning.md).
  bool use_lower_bound = true;
  /// Worker threads. 0 = serial (the original single-threaded traversal).
  /// >= 1 ensures the process-wide work-stealing scheduler has at least
  /// that many persistent workers. For Search/SearchKnn the traversal
  /// splits lazily into branch tasks as idle workers ask for work; for
  /// SearchBatch independent queries fan out as one task each. Results
  /// are identical to serial either way.
  std::size_t num_threads = 0;
  /// Cooperative cancellation / deadline hook. When non-null the search
  /// polls the token at bounded intervals and stops early once it expires,
  /// setting SearchStats::cancelled. Matches reported before the stop are
  /// exact (no false dismissal within the completed work); the set is a
  /// subset of the full answer. The token must outlive the search. For
  /// SearchBatch one token covers the whole batch.
  const CancelToken* cancel = nullptr;
  /// Node-summary pre-filter (on by default; a no-op when the index was
  /// built without summaries). Answers are identical either way at
  /// approx_factor == 1 — this is the ablation hook for the screen.
  bool use_node_summaries = true;
  /// The recall dial: scales the summary lower bound before comparing
  /// against the threshold. 1.0 = exact (byte-identical results, the
  /// default); values > 1 prune more aggressively and may drop matches —
  /// the result is always a subset of the exact answer. Must be >= 1.
  /// Ignored when summaries are off.
  Value approx_factor = 1.0;
};

/// An immutable, reference-counted view of an index at one instant: an
/// ordered stack of tiers covering disjoint, contiguous global sequence
/// ranges (a monolithic index is one tier; a TieredIndex adds sealed
/// appended tiers and a memtable tier on top). ALL query entry points live
/// here; Index and TieredIndex are handles that produce snapshots.
///
/// Searches fan out across the tiers through one shared ResultCollector —
/// one shrinking k-NN epsilon, one deterministic merge — and return
/// matches with global sequence ids, byte-identical to a monolithic index
/// over the same data (every engine verifies candidates exactly, so the
/// per-tier symbol tables never change the match set).
///
/// Thread safety: snapshots are immutable after construction; every
/// member may be called from any number of threads concurrently. Holding
/// the shared_ptr pins every tier (trees, buffer managers, database
/// fragments), so queries keep running against retired tiers safely while
/// appends and merges publish newer snapshots.
class IndexSnapshot {
 public:
  /// Assembles a snapshot from tiers (ordered by first_seq). `base_info`
  /// contributes the non-additive fields (num_categories, ...); the
  /// additive counters are re-aggregated over the tiers.
  IndexSnapshot(IndexOptions options, IndexBuildInfo base_info,
                std::vector<std::shared_ptr<const Tier>> tiers);

  IndexSnapshot(const IndexSnapshot&) = delete;
  IndexSnapshot& operator=(const IndexSnapshot&) = delete;

  /// All subsequences with D_tw(query, subsequence) <= epsilon, sorted by
  /// (seq, start, len).
  std::vector<Match> Search(std::span<const Value> query, Value epsilon,
                            const QueryOptions& query_options = {},
                            SearchStats* stats = nullptr) const;

  /// The k subsequences nearest to `query` under D_tw, sorted by distance
  /// (branch-and-bound over the same filter; ties at the k-th distance are
  /// broken deterministically by (distance, seq, start, len)).
  std::vector<Match> SearchKnn(std::span<const Value> query, std::size_t k,
                               const QueryOptions& query_options = {},
                               SearchStats* stats = nullptr) const;

  /// Runs one range search per query, coalescing the (independent)
  /// queries into one fork/join scope on the shared work-stealing
  /// scheduler (>= query_options.num_threads workers); each query itself
  /// runs serially, so per-query results and stats are bit-identical to
  /// Search(). `epsilons` holds either one shared threshold or one per
  /// query. When `stats` is non-null it is resized to one entry per query.
  /// num_threads == 0 degenerates to a serial loop over Search().
  std::vector<std::vector<Match>> SearchBatch(
      const std::vector<std::vector<Value>>& queries,
      const std::vector<Value>& epsilons,
      const QueryOptions& query_options = {},
      std::vector<SearchStats>* stats = nullptr) const;

  const IndexBuildInfo& build_info() const { return build_info_; }
  const IndexOptions& options() const { return options_; }

  const std::vector<std::shared_ptr<const Tier>>& tiers() const {
    return tiers_;
  }

  /// Total sequences covered (global id space size).
  std::size_t total_sequences() const;

  /// True iff any tier is disk-backed.
  bool on_disk() const;

  /// The base (first) tier's disk tree, or nullptr for in-memory bases;
  /// exposes buffer-manager statistics for I/O experiments.
  const suffixtree::DiskSuffixTree* disk_tree() const;

  /// Per-region buffer-manager statistics summed over every disk-backed
  /// tier, or nullopt when none is. All-zero counters under mmap: the
  /// zero-copy path never pins a page.
  std::optional<suffixtree::RegionStats> PoolStats() const;

  /// Mapped/resident byte totals over the mmap-backed disk tiers (zero
  /// when every tier is buffered or in memory). Residency probes mincore;
  /// keep it to stats endpoints.
  MappedIoStats MappedStats() const;

 private:
  IndexOptions options_;
  IndexBuildInfo build_info_;
  std::vector<std::shared_ptr<const Tier>> tiers_;
};

/// The public index: builds one of the paper's three structures over a
/// SequenceDatabase and answers subsequence similarity queries under the
/// time warping distance with no false dismissals.
///
/// An Index is a thin immutable handle over a one-tier IndexSnapshot —
/// construction (Build/Open) produces the snapshot, and every query
/// method delegates to it. The database must outlive the index (and any
/// snapshot taken from it).
///
/// Thread safety: every const member (Search, SearchKnn, SearchBatch,
/// PoolStats, build_info, ...) may be called from any number of threads
/// concurrently, and Build/Open construct independent instances touching
/// no shared mutable state, so opening one index is safe while another —
/// even one over the same on-disk bundle — is serving reads. Move
/// *assignment* is deleted: swapping a live Index in place under
/// concurrent readers was the PR 7 server race, and snapshot publication
/// (server::IndexHandle / TieredIndex) is the only sanctioned swap path.
class Index {
 public:
  static StatusOr<Index> Build(const seqdb::SequenceDatabase* db,
                               const IndexOptions& options);

  /// Reopens a disk-backed index previously Build()-t with
  /// `options.disk_path` set, against the same database. The categorizer
  /// state is re-derived deterministically from (db, options); the tree is
  /// opened from the bundle without rebuilding. A fingerprint written at
  /// build time guards against mismatched databases or options.
  static StatusOr<Index> Open(const seqdb::SequenceDatabase* db,
                              const IndexOptions& options);

  Index(Index&&) = default;
  Index& operator=(Index&&) = delete;
  Index(const Index&) = delete;
  Index& operator=(const Index&) = delete;

  std::vector<Match> Search(std::span<const Value> query, Value epsilon,
                            const QueryOptions& query_options = {},
                            SearchStats* stats = nullptr) const {
    return snapshot_->Search(query, epsilon, query_options, stats);
  }

  std::vector<Match> SearchKnn(std::span<const Value> query, std::size_t k,
                               const QueryOptions& query_options = {},
                               SearchStats* stats = nullptr) const {
    return snapshot_->SearchKnn(query, k, query_options, stats);
  }

  std::vector<std::vector<Match>> SearchBatch(
      const std::vector<std::vector<Value>>& queries,
      const std::vector<Value>& epsilons,
      const QueryOptions& query_options = {},
      std::vector<SearchStats>* stats = nullptr) const {
    return snapshot_->SearchBatch(queries, epsilons, query_options, stats);
  }

  const IndexBuildInfo& build_info() const {
    return snapshot_->build_info();
  }
  const IndexOptions& options() const { return snapshot_->options(); }

  /// Non-null iff the index was built with a disk_path; exposes buffer
  /// manager statistics for I/O experiments.
  const suffixtree::DiskSuffixTree* disk_tree() const {
    return snapshot_->disk_tree();
  }

  /// Per-region buffer-manager statistics of the disk-backed tree, or
  /// nullopt for in-memory indexes.
  std::optional<suffixtree::RegionStats> PoolStats() const {
    return snapshot_->PoolStats();
  }

  /// Mapped/resident byte totals of the mmap read path (see
  /// IndexSnapshot::MappedStats).
  MappedIoStats MappedStats() const { return snapshot_->MappedStats(); }

  /// The underlying immutable snapshot. Shared: the snapshot (and through
  /// it every tier) stays alive as long as any holder keeps the pointer,
  /// independent of this Index object — the handoff used by
  /// server::IndexHandle and TieredIndex.
  std::shared_ptr<const IndexSnapshot> snapshot() const { return snapshot_; }

 private:
  friend class TieredIndex;

  Index() = default;

  std::shared_ptr<const IndexSnapshot> snapshot_;
};

}  // namespace tswarp::core

#endif  // TSWARP_CORE_INDEX_H_
