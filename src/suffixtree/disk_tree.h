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

/// A disk-resident suffix tree is a bundle of four files:
///   <base>.meta    counts + magic + v3 section table
///   <base>.nodes   fixed 28-byte node records (internal::NodeRecord)
///   <base>.occs    fixed 16-byte occurrence records (internal::OccRecord)
///   <base>.labels  the tree's symbol text (4 bytes per symbol); node
///                  records reference their edge labels in it by
///                  (label_offset, label_len)
/// The record regions hold a SuffixTree's node and occurrence vectors
/// byte for byte. The bundle is relocatable: records reference each other
/// by index only (no absolute offsets or embedded paths), so the files can
/// be moved or renamed together freely (RenameDiskTree). Open validates
/// every node and occurrence record against the counts, so a corrupt
/// record is a Corruption at Open, never a read outside the bundle.
/// Bundles of formats v1 (no section table) and v2 (32-byte node records,
/// possibly with a `.sums` file) are refused with a Corruption that says
/// to rebuild.

/// The TreeView of a disk tree bundle. The three region files are mapped
/// read-only at Open (their extents validated against the section table,
/// so truncation is a clean Status::Corruption, never a SIGBUS, and every
/// record id and label range checked) before the view's spans are pointed
/// into the mappings: no pins, no locks and no private cache. The kernel
/// page cache is the only cache, shared by every process serving the same
/// bundle, and serves bundles larger than RAM. GetChildren hands out label
/// spans straight into the mapped text.
class DiskSuffixTree : public TreeView {
 public:
  static StatusOr<std::unique_ptr<DiskSuffixTree>> Open(
      const std::string& base_path);

  /// Primes for a front-to-back scan (BuildDiskTree's merges): madvise
  /// MADV_SEQUENTIAL on the record regions.
  void HintSequentialScan() const;

  /// Bytes mapped into the address space.
  std::uint64_t MappedBytes() const;

  /// Mapped bytes currently resident in the kernel page cache (best
  /// effort). Not a hot-path call.
  std::uint64_t ResidentBytes() const;

 private:
  DiskSuffixTree() = default;

  storage::MappedFile nodes_file_;
  storage::MappedFile occs_file_;
  storage::MappedFile labels_file_;
};

/// Writes `tree`, finalized and with an OK status(), as a v3 bundle at
/// `base_path`: `.labels` from the tree's text, `.occs` and `.nodes`
/// straight from its occurrence and node vectors, each file written
/// sequentially and fsynced, then the meta page, then an fsync of
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

/// Moves the bundle at `from` to `to`: deletes whatever bundle `to` names
/// (RemoveDiskTree), renames each file, then fsyncs the directory of `to`
/// so the renames survive power loss. A failed rename is an IOError that
/// may leave the bundle split between both names; the caller removes both.
Status RenameDiskTree(const std::string& from, const std::string& to);

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
/// reads its two inputs mapped (hinted sequential) into an in-memory
/// SuffixTree and writes it with WriteTreeToDisk. Every batch tree
/// references one text, the database's sequences concatenated, so merges
/// (MergeText::kShared) carry label references through unchanged and never
/// grow the text.
/// Intermediate bundles are scanned once and deleted; on any error every
/// intermediate still on disk is removed before the error is returned.
StatusOr<std::unique_ptr<DiskSuffixTree>> BuildDiskTree(
    const SymbolDatabase& db, const std::string& base_path,
    DiskBuildOptions options = {});

/// Test hook: rewrites the meta page of a finalized bundle as format v1
/// (the layouts share a common prefix), producing the bundle an older
/// build would have written. Used to pin that v1 is refused.
Status DowngradeBundleToV1ForTest(const std::string& base_path);

}  // namespace tswarp::suffixtree

#endif  // TSWARP_SUFFIXTREE_DISK_TREE_H_
