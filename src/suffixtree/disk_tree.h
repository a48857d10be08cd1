#ifndef TSWARP_SUFFIXTREE_DISK_TREE_H_
#define TSWARP_SUFFIXTREE_DISK_TREE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/mmap_file.h"
#include "suffixtree/suffix_tree.h"
#include "suffixtree/symbol_database.h"
#include "suffixtree/tree_view.h"

namespace tswarp::suffixtree {

/// A disk-resident suffix tree is one file, `<base>.tsw` (format v4):
///   a 4 KiB header   magic, version, the section table and an opaque
///                    fingerprint area
///   nodes section    fixed 28-byte node records (internal::NodeRecord)
///   occs section     fixed 16-byte occurrence records (internal::OccRecord)
///   labels section   the tree's symbol text (4 bytes per symbol); node
///                    records reference their edge labels in it by
///                    (label_offset, label_len)
/// The sections follow the header back to back, so the file is
/// TreeView::SizeBytes() long. They hold a SuffixTree's node and
/// occurrence vectors byte for byte, and records reference each other by
/// index only, so the file can be moved freely. The fingerprint is the
/// caller's: this layer stores it and hands it back at Open without
/// reading it. A bundle of an older format (v1-v3, four region files under
/// a `<base>.meta` page) is refused with a Corruption that says to rebuild.
/// Only the bundle BuildDiskTree publishes has a name; every other tree is
/// a scratch tree (WriteScratchTree), the same bytes in an unnamed file.

/// The TreeView of a disk tree bundle. The file is mapped read-only at
/// Open; the section extents are checked against its size (so truncation
/// is a clean Status::Corruption, never a SIGBUS), then the fingerprint,
/// then every record id and label range, before the view's spans are
/// pointed into the mapping: no pins, no locks and no private cache. The
/// kernel page cache is the only cache, shared by every process serving
/// the same bundle, and serves bundles larger than RAM. GetChildren hands
/// out label spans straight into the mapped text.
class DiskSuffixTree : public TreeView {
 public:
  /// Decides whether a bundle's fingerprint bytes are the ones the caller
  /// wants; a non-OK status refuses the bundle and is returned by Open.
  using FingerprintCheck =
      std::function<Status(std::span<const std::byte> fingerprint)>;

  /// Opens `<base_path>.tsw`. A missing file is NotFound, unless a
  /// `<base_path>.meta` of an older format is there: that is a Corruption
  /// that says to rebuild. `check_fingerprint`, when set, sees the stored
  /// fingerprint before any record is read.
  static StatusOr<std::unique_ptr<DiskSuffixTree>> Open(
      const std::string& base_path,
      const FingerprintCheck& check_fingerprint = nullptr);

  /// Primes for a front-to-back scan (BuildDiskTree's merges): madvise
  /// MADV_SEQUENTIAL on the mapping.
  void HintSequentialScan() const;

  /// Bytes mapped into the address space: the whole file.
  std::uint64_t MappedBytes() const;

  /// Mapped bytes currently resident in the kernel page cache (best
  /// effort). Not a hot-path call.
  std::uint64_t ResidentBytes() const;

 private:
  friend StatusOr<std::unique_ptr<DiskSuffixTree>> WriteScratchTree(
      const SuffixTree& tree, const std::string& base_path);

  DiskSuffixTree() = default;

  /// Open's checks, on a file already mapped.
  static StatusOr<std::unique_ptr<DiskSuffixTree>> FromFile(
      StatusOr<storage::MappedFile> mapped,
      const FingerprintCheck& check_fingerprint);

  storage::MappedFile file_;
};

/// The largest fingerprint a bundle header holds.
inline constexpr std::size_t kMaxFingerprintBytes = 4000;

/// Writes `tree`, finalized and with an OK status(), as `<base_path>.tsw`:
/// the header (with `fingerprint`, at most kMaxFingerprintBytes, stored as
/// given) and the node, occurrence and label sections straight from the
/// tree's vectors, in one sequential pass over one file, fsynced once. The
/// file's name is durable only once its directory is synced. An
/// unfinalized tree is a FailedPrecondition, a failed tree returns its
/// status() and an oversized fingerprint is an InvalidArgument, all before
/// any file is touched; an I/O error may leave a partial file, which the
/// caller removes (RemoveDiskTree). To serialize another TreeView,
/// CopyTree it into a SuffixTree first.
Status WriteTreeToDisk(const SuffixTree& tree, const std::string& base_path,
                       std::span<const std::byte> fingerprint = {});

/// Writes `tree` as WriteTreeToDisk would, with no fingerprint, into an
/// unnamed file in the directory of `base_path` (MappedFile::WriteScratch)
/// and opens it as Open would: the file dies with the returned tree.
StatusOr<std::unique_ptr<DiskSuffixTree>> WriteScratchTree(
    const SuffixTree& tree, const std::string& base_path);

/// Deletes the bundle file at `base_path` (best-effort).
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
/// memory, copied (CopyTree) and spilled as scratch trees, then
/// pairwise-merged, each merge reading its inputs mapped (hinted
/// sequential) into an in-memory SuffixTree. The final tree (the last
/// merge, or the only spill) is written with `fingerprint` to
/// `<base_path>.tmp`, fsynced and renamed to `base_path`, the one step
/// that replaces a bundle already there; a crash may leave
/// `<base_path>.tmp`, which the next build writes over. Every batch tree
/// references one text, the database's sequences concatenated, so merges
/// (MergeText::kShared) carry label references through unchanged.
StatusOr<std::unique_ptr<DiskSuffixTree>> BuildDiskTree(
    const SymbolDatabase& db, const std::string& base_path,
    DiskBuildOptions options = {},
    std::span<const std::byte> fingerprint = {});

}  // namespace tswarp::suffixtree

#endif  // TSWARP_SUFFIXTREE_DISK_TREE_H_
