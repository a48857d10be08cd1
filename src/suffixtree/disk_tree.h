#ifndef TSWARP_SUFFIXTREE_DISK_TREE_H_
#define TSWARP_SUFFIXTREE_DISK_TREE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/mmap_file.h"
#include "suffixtree/suffix_tree.h"
#include "suffixtree/symbol_database.h"
#include "suffixtree/tree_view.h"

namespace tswarp::suffixtree {

namespace internal {
struct NodeRecord;  // On-disk 32-byte node record (disk_tree.cc).
}  // namespace internal

/// A disk-resident suffix tree is a bundle of four files:
///   <base>.meta    counts + magic + v2 section table
///   <base>.nodes   fixed 32-byte node records
///   <base>.occs    fixed 16-byte occurrence records
///   <base>.labels  the tree's symbol text (4 bytes per symbol); node
///                  records reference their edge labels in it by
///                  (label_offset, label_len)
/// Bundles written before the node-summary screen was removed may also
/// carry a fifth file, <base>.sums, announced by a 4th section-table
/// entry; Open ignores it and RemoveDiskTree still deletes it.
/// The bundle is relocatable: records reference each other by index only
/// (no absolute offsets or embedded paths), so the files can be moved or
/// renamed together freely. Open validates every node and occurrence
/// record against the counts, so a corrupt record is a Corruption at Open,
/// never a read outside the bundle. Format v1 bundles (no section table)
/// are refused with a Corruption that says to rebuild.

/// Read-only TreeView over a disk tree bundle. The three region files are
/// mapped read-only at Open (their extents validated against the section
/// table, so truncation is a clean Status::Corruption, never a SIGBUS,
/// and every record id and label range checked), and accessors read
/// records straight out of the mappings: no pins, no locks and no private
/// cache. The kernel page cache is the only cache, shared by every
/// process serving the same bundle, and serves bundles larger than RAM.
/// GetChildren hands out label spans straight into the mapped text.
///
/// Thread safety: the read accessors (GetChildren, GetOccurrences,
/// SubtreeOccCount, MaxRun, CollectSubtreeOccurrences) may be called from
/// many threads concurrently; every caller-visible buffer is an
/// out-parameter owned by the calling worker.
class DiskSuffixTree : public TreeView {
 public:
  static StatusOr<std::unique_ptr<DiskSuffixTree>> Open(
      const std::string& base_path);

  ~DiskSuffixTree() override;

  // --- TreeView ---
  NodeId Root() const override { return 0; }
  void GetChildren(NodeId node, Children* out) const override;
  void GetOccurrences(NodeId node,
                      std::vector<OccurrenceRec>* out) const override;
  std::uint32_t SubtreeOccCount(NodeId node) const override;
  Pos MaxRun(NodeId node) const override;
  std::uint64_t NumNodes() const override { return nodes_.record_count(); }
  std::uint64_t NumOccurrences() const override {
    return occs_.record_count();
  }
  std::span<const Symbol> Text() const override { return text_; }
  std::uint64_t NumLabelSymbols() const override {
    return text_.size();
  }
  std::uint64_t MaterializedLabelSymbols() const override {
    return materialized_label_symbols_;
  }
  std::uint64_t SizeBytes() const override;

  /// Primes for a front-to-back scan (merge / CopyTree): madvise
  /// MADV_SEQUENTIAL on the record regions.
  void HintSequentialScan() const override;

  /// Bytes mapped into the address space.
  std::uint64_t MappedBytes() const;

  /// Mapped bytes currently resident in the kernel page cache (best
  /// effort). Not a hot-path call.
  std::uint64_t ResidentBytes() const;

 private:
  DiskSuffixTree() = default;

  const internal::NodeRecord& Node(NodeId id) const;

  storage::MappedFile nodes_file_;
  storage::MappedFile occs_file_;
  storage::MappedFile labels_file_;
  storage::MappedRegion nodes_;
  storage::MappedRegion occs_;
  std::span<const Symbol> text_;
  std::uint64_t materialized_label_symbols_ = 0;
};

/// Writes `tree`, finalized and with an OK status(), as a v2 bundle at
/// `base_path`, its records in the tree's own id order: `.labels` from the
/// tree's text, `.occs` straight from its occurrence records, `.nodes`
/// converted from the in-memory node layout in bounded chunks, each file
/// written sequentially and fsynced, then the meta page, then an fsync of
/// the containing directory, so a bundle reported durable cannot vanish
/// on power loss. An unfinalized tree is a FailedPrecondition and a failed
/// tree returns its status(), both before any file is touched; an I/O
/// error may leave a partial bundle without a meta page, which the caller
/// removes (RemoveDiskTree). To serialize another TreeView, CopyTree it
/// into a SuffixTree first.
Status WriteTreeToDisk(const SuffixTree& tree, const std::string& base_path);

/// Deletes the files of a disk tree bundle, a legacy `.sums` file
/// included (best-effort).
void RemoveDiskTree(const std::string& base_path);

/// Build configuration for the batched, merge-based disk construction
/// (paper Section 4.1: "a series of binary merges of suffix trees of
/// increasing size").
struct DiskBuildOptions {
  BuildOptions build;
  /// Sequences per in-memory batch tree before it is spilled to disk.
  std::size_t batch_sequences = 64;
};

/// Builds a disk tree over all sequences of `db`: batches are built in
/// memory, copied (CopyTree) and spilled to `<base_path>.tmpN` bundles,
/// then pairwise-merged until one tree remains at `base_path`. Each merge
/// reads its two inputs mapped into an in-memory SuffixTree and writes it
/// with WriteTreeToDisk. Every batch tree references one text, the
/// database's sequences concatenated, so merges (MergeText::kShared) carry
/// label references through unchanged and never grow the text.
/// Intermediate bundles are scanned once and deleted; on any error every
/// intermediate still on disk is removed before the error is returned.
StatusOr<std::unique_ptr<DiskSuffixTree>> BuildDiskTree(
    const SymbolDatabase& db, const std::string& base_path,
    DiskBuildOptions options = {});

/// Test hook: rewrites the meta page of a finalized v2 bundle as format
/// v1 (the layouts share a common prefix), producing the bundle an older
/// build would have written. Used to pin that v1 is refused.
Status DowngradeBundleToV1ForTest(const std::string& base_path);

}  // namespace tswarp::suffixtree

#endif  // TSWARP_SUFFIXTREE_DISK_TREE_H_
