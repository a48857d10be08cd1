#ifndef TSWARP_SUFFIXTREE_DISK_TREE_H_
#define TSWARP_SUFFIXTREE_DISK_TREE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/buffer_manager.h"
#include "storage/mmap_file.h"
#include "storage/paged_file.h"
#include "suffixtree/node_summary.h"
#include "suffixtree/suffix_tree.h"
#include "suffixtree/symbol_database.h"
#include "suffixtree/tree_view.h"

namespace tswarp::suffixtree {

namespace internal {
class TreeAccess;  // Pluggable node-access backend (buffered or mmap).
}  // namespace internal

class DiskSuffixTree;
struct DiskBuildOptions;

/// A disk-resident suffix tree is a bundle of four files, plus an
/// optional fifth:
///   <base>.meta    counts + magic + v2 section table
///   <base>.nodes   fixed 32-byte node records
///   <base>.occs    fixed 16-byte occurrence records
///   <base>.labels  the tree's symbol text (4 bytes per symbol); node
///                  records reference their edge labels in it by
///                  (label_offset, label_len)
///   <base>.sums    fixed 64-byte node-summary records (optional; v2
///                  only, announced by a 4th section-table entry)
/// The bundle is relocatable: records reference each other by index only
/// (no absolute offsets or embedded paths), so the files can be moved or
/// renamed together freely. Open validates every node and occurrence
/// record against the counts, so a corrupt record is a Corruption at Open,
/// never a read outside the bundle.
///
/// Two read paths exist, selected per open via `io_mode`:
///   - buffered: per-region sharded buffer managers with a bounded page
///     budget for the node and occurrence records — trees larger than RAM
///     can be built, merged, and searched; the text is read into memory at
///     Open. The only path that can read v1 bundles.
///   - mmap: the region files are mapped read-only and cursors read
///     records straight out of the mapping — zero pins, zero private
///     cache, kernel page cache shared across processes. Requires a
///     finalized v2 bundle.
struct DiskTreeOptions {
  /// Frame budget per region file (buffered path only).
  std::size_t pool_pages = 256;

  /// Lock shards per region manager; 0 = auto (hardware threads, capped),
  /// 1 = classic single-mutex pool (the PR 1 baseline). Buffered only.
  std::size_t pool_shards = 0;

  /// Replacement policy of every region manager. Buffered only.
  storage::EvictionPolicyKind eviction = storage::EvictionPolicyKind::kLru;

  /// Sequential read-ahead window (pages); 0 disables. Only helps
  /// scan-shaped access (merge, CopyTree), never hurts random traversal
  /// because the manager arms it on sequential fault patterns only.
  /// On the mmap path the analogue is madvise MADV_SEQUENTIAL, armed by
  /// HintSequentialScan() regardless of this knob.
  std::size_t readahead_pages = 8;

  /// Read path for DiskSuffixTree::Open. The writer always runs buffered
  /// (mmap is read-only). Library default is buffered for compatibility;
  /// core::IndexOptions defaults to mmap for finalized bundles.
  storage::IoMode io_mode = storage::IoMode::kBuffered;

  /// Whether Open serves the bundle's node-summary section when present
  /// (mmap: mapped like any region; buffered: loaded eagerly as a flat
  /// sidecar array — summaries are consulted per edge, so they bypass
  /// the page pool). Bundles without the section always open fine and
  /// simply expose an empty span.
  bool load_node_summaries = true;

  storage::BufferManagerOptions ToManagerOptions() const;
};

/// Buffer-manager statistics of one tree, broken down by region (the text
/// is never paged). On the mmap path all counters are zero — there is no
/// pool to hit or miss.
struct RegionStats {
  storage::BufferManager::Stats nodes;
  storage::BufferManager::Stats occs;

  storage::BufferManager::Stats Total() const;
};

/// TreeSink that writes a disk tree bundle (always buffered; mappings are
/// read-only). SetText writes the `.labels` region in one pass. Nodes and
/// occurrences are appended; parent/sibling links are patched in place
/// through the managers' byte-granular Read/Write shim (patching a record
/// rewrites a few dozen bytes mid-page, so pin-copy-unpin is the right
/// shape here). Close() syncs the meta file and then fsyncs the containing
/// directory, so a bundle that Close() reported durable cannot vanish on
/// power loss.
class DiskTreeWriter : public TreeSink {
 public:
  static StatusOr<std::unique_ptr<DiskTreeWriter>> Create(
      const std::string& base_path, DiskTreeOptions options = {});

  // --- TreeSink ---
  void SetText(std::span<const Symbol> text) override;
  NodeId AddNode(NodeId parent, LabelRef label) override;
  void AddOccurrence(NodeId node, const OccurrenceRec& occ) override;
  void Finalize() override;

  /// Flushes the managers and writes the meta file. Must be called after
  /// Finalize(); the bundle is unreadable before Close(). Idempotent: the
  /// first call decides the outcome and latches it; any further call
  /// returns the latched status without touching the files again.
  /// Close() before Finalize() latches (and returns) FailedPrecondition.
  Status Close();

  /// Last I/O error, if any sink call failed (TreeSink's interface has no
  /// Status returns; errors are latched and surfaced here / by Close()).
  const Status& status() const { return status_; }

 private:
  DiskTreeWriter(const std::string& base_path, DiskTreeOptions options);

  Status Init();
  Status CloseInternal();
  void Latch(const Status& s) {
    if (status_.ok() && !s.ok()) status_ = s;
  }

  std::string base_path_;
  DiskTreeOptions options_;
  std::unique_ptr<storage::PagedFile> node_file_;
  std::unique_ptr<storage::PagedFile> occ_file_;
  std::unique_ptr<storage::BufferManager> nodes_;
  std::unique_ptr<storage::BufferManager> occs_;
  std::uint64_t num_nodes_ = 0;
  std::uint64_t num_occs_ = 0;
  std::uint64_t num_label_symbols_ = 0;
  bool finalized_ = false;
  bool closed_ = false;
  Status status_;
};

/// Read-only TreeView over a disk tree bundle, backed by one of two
/// node-access layers chosen at Open time (DiskTreeOptions::io_mode):
///
///   - Buffered: every accessor pins the pages it touches through two
///     sharded BufferManagers (nodes, occurrences) and reads records
///     zero-copy out of the pinned frames; the text is read into memory
///     at Open. Parallel searchers contend only on same-shard pages.
///     Works for v1 and v2 bundles.
///   - Mapped: the three region files are mmap'd read-only at Open
///     (validated up front — truncation is a clean Status::Corruption,
///     never a SIGBUS) and accessors read records directly from the
///     mapping with no pinning or locking at all.
///
/// Either way GetChildren hands out label spans straight into the text,
/// with no copy.
///
/// Thread safety: the read accessors (GetChildren, GetOccurrences,
/// SubtreeOccCount, MaxRun, CollectSubtreeOccurrences, PoolStats) may be
/// called from many threads concurrently on either backend; every
/// caller-visible buffer is an out-parameter owned by the calling worker.
class DiskSuffixTree : public TreeView {
 public:
  static StatusOr<std::unique_ptr<DiskSuffixTree>> Open(
      const std::string& base_path, DiskTreeOptions options = {});

  ~DiskSuffixTree() override;

  // --- TreeView ---
  NodeId Root() const override { return 0; }
  void GetChildren(NodeId node, Children* out) const override;
  void GetOccurrences(NodeId node,
                      std::vector<OccurrenceRec>* out) const override;
  std::uint32_t SubtreeOccCount(NodeId node) const override;
  Pos MaxRun(NodeId node) const override;
  std::uint64_t NumNodes() const override { return num_nodes_; }
  std::uint64_t NumOccurrences() const override { return num_occs_; }
  std::span<const Symbol> Text() const override { return text_; }
  std::uint64_t NumLabelSymbols() const override {
    return num_label_symbols_;
  }
  std::uint64_t MaterializedLabelSymbols() const override {
    return materialized_label_symbols_;
  }
  std::uint64_t SizeBytes() const override;

  /// Primes for a front-to-back scan (merge / CopyTree): sequential
  /// read-ahead on the buffered path, madvise MADV_SEQUENTIAL on mmap.
  void HintSequentialScan() const override;

  /// Buffer-manager statistics, per region. RegionStats::Total() gives
  /// the old aggregate view. All-zero on the mmap path: no pool exists.
  RegionStats PoolStats() const;

  /// Resolved shard count of the region managers (after auto-detection);
  /// 0 on the mmap path.
  std::size_t pool_shards() const;
  storage::EvictionPolicyKind pool_eviction() const;

  /// Read path this tree was opened with.
  storage::IoMode io_mode() const;

  /// Bytes mapped into the address space (mmap path; 0 when buffered).
  std::uint64_t MappedBytes() const;

  /// Mapped bytes currently resident in the kernel page cache (best
  /// effort, mmap path only). Not a hot-path call.
  std::uint64_t ResidentBytes() const;

  /// On-disk format version of the bundle (1 or 2).
  std::uint32_t format_version() const { return format_version_; }

  /// Node-summary records of the bundle's optional summary section,
  /// indexed by NodeId. Empty when the bundle has no section or Open was
  /// told not to load it. Valid for the tree's lifetime (mmap: a view
  /// into the mapping; buffered: an owned copy read at Open).
  std::span<const NodeSummaryRecord> node_summaries() const;

 private:
  DiskSuffixTree() = default;

  std::string base_path_;
  DiskTreeOptions options_;
  std::unique_ptr<internal::TreeAccess> access_;
  std::span<const Symbol> text_;
  std::uint64_t num_nodes_ = 0;
  std::uint64_t num_occs_ = 0;
  std::uint64_t num_label_symbols_ = 0;
  std::uint64_t materialized_label_symbols_ = 0;
  std::uint32_t format_version_ = 0;
};

/// Serializes any TreeView to a disk bundle at `base_path`.
Status WriteTreeToDisk(const TreeView& view, const std::string& base_path,
                       DiskTreeOptions options = {});

/// Adds (or replaces) the node-summary section of a finalized v2 bundle:
/// writes `<base>.sums` and rewrites the meta page's section table to
/// announce it. `records.size()` must equal the bundle's node count.
/// Open handles on the bundle do not observe the new section; reopen to
/// serve it. v1 bundles are rejected (no section table to extend).
Status AttachNodeSummaries(const std::string& base_path,
                           std::span<const NodeSummaryRecord> records);

/// Deletes the files of a disk tree bundle (best-effort).
void RemoveDiskTree(const std::string& base_path);

/// Build configuration for the batched, merge-based disk construction
/// (paper Section 4.1: "a series of binary merges of suffix trees of
/// increasing size").
struct DiskBuildOptions {
  BuildOptions build;
  /// Sequences per in-memory batch tree before it is spilled to disk.
  std::size_t batch_sequences = 64;
  DiskTreeOptions tree = {};
};

/// Builds a disk tree over all sequences of `db`: batches are built in
/// memory, spilled, then pairwise-merged on disk until one tree remains at
/// `base_path`. Every batch tree references one text, the database's
/// sequences concatenated, so merges (MergeText::kShared) carry label
/// references through unchanged and never grow the text. Intermediate
/// trees are always opened buffered (they are scanned once and deleted);
/// only the final open honors `options.tree.io_mode`.
StatusOr<std::unique_ptr<DiskSuffixTree>> BuildDiskTree(
    const SymbolDatabase& db, const std::string& base_path,
    DiskBuildOptions options = {});

/// Test hook: rewrites the meta page of a finalized v2 bundle as format
/// v1 (the layouts share a common prefix), producing the bundle an older
/// build would have written. Used to pin the version gate.
Status DowngradeBundleToV1ForTest(const std::string& base_path);

}  // namespace tswarp::suffixtree

#endif  // TSWARP_SUFFIXTREE_DISK_TREE_H_
