#ifndef TSWARP_CORE_TIER_H_
#define TSWARP_CORE_TIER_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "categorize/alphabet.h"
#include "common/types.h"
#include "seqdb/sequence_database.h"
#include "suffixtree/disk_tree.h"
#include "suffixtree/node_summary.h"
#include "suffixtree/suffix_tree.h"

namespace tswarp::core {

/// Summary counters of one tier, surfaced through `GET /stats` and the
/// CLI `--stats` per-tier breakdown.
struct TierInfo {
  SeqId first_seq = 0;           // Global id of the tier's first sequence.
  std::size_t sequences = 0;     // Sequences covered by this tier.
  std::uint64_t elements = 0;    // Raw element values covered.
  std::uint64_t nodes = 0;
  std::uint64_t occurrences = 0;  // Stored suffixes.
  std::uint64_t index_bytes = 0;   // Stored footprint (SizeBytes()).
  std::uint64_t table1_bytes = 0;  // Paper's Table-1 figure (Table1Bytes()).
  bool on_disk = false;
  bool memtable = false;  // The mutable-logically, immutable-physically top.
  /// Read path of a disk tier (meaningless for in-memory tiers).
  storage::IoMode io_mode = storage::IoMode::kBuffered;
  /// Bytes mmap'd for this tier; 0 on the buffered path.
  std::uint64_t mapped_bytes = 0;
  /// Whether the tier serves per-node summaries (the subtree-hull
  /// pre-filter). Memtable tiers never do — summaries are built at
  /// seal/merge time.
  bool has_summaries = false;
};

/// One immutable tier of an index: a suffix tree over a contiguous range
/// of sequences [first_seq, first_seq + sequences), its own symbol tables,
/// and the raw values it indexes. Everything inside a tier is addressed by
/// *tier-local* sequence ids (0-based over the tier's own database
/// fragment); searches rebase matches to global ids with `first_seq`
/// (TierSearchEntry::seq_base).
///
/// A monolithic Index is exactly one tier over the external database; a
/// TieredIndex stacks a base tier, sealed appended tiers, and a memtable
/// tier. Tiers are reference-counted (shared_ptr<const Tier>) and pinned
/// by every snapshot that includes them: a tier retired by a background
/// merge stays fully alive — tree, buffer managers, database fragment —
/// until the last in-flight query drops its snapshot, and a disk tier
/// that owns its bundle files deletes them at that point (the
/// buffer-manager lifetime is the tier lifetime).
struct Tier {
  Tier() = default;
  Tier(const Tier&) = delete;
  Tier& operator=(const Tier&) = delete;
  ~Tier();

  /// Global id of tier-local sequence 0.
  SeqId first_seq = 0;

  /// Raw values indexed by this tier, addressed by tier-local ids. Points
  /// at `owned_db` for appended/merged tiers or at the external base
  /// database (which must outlive the tier).
  const seqdb::SequenceDatabase* db = nullptr;
  std::optional<seqdb::SequenceDatabase> owned_db;

  /// Category intervals (categorized modes). Each tier carries its own
  /// fitted copy: the nominal boundaries are frozen at base build so every
  /// tier symbolizes identically, and the copy is fitted to this tier's
  /// values so the interval lower bound covers them.
  std::optional<categorize::Alphabet> alphabet;

  /// Symbol -> value decode (exact mode). A snapshot of the append-only
  /// global dictionary taken when the tier was sealed; later tiers'
  /// snapshots extend earlier ones, so a merged tier keeps the newer one.
  std::vector<Value> symbol_values;

  /// Exactly one of these holds the tree.
  std::optional<suffixtree::SuffixTree> memory_tree;
  std::unique_ptr<suffixtree::DiskSuffixTree> disk_tree;

  /// Per-node summaries of an in-memory tree (empty = none built). Disk
  /// tiers serve theirs from the bundle's summary section instead; use
  /// summaries() to read whichever the tier has.
  std::vector<suffixtree::NodeSummaryRecord> memory_summaries;

  /// When owns_disk_files, the bundle at disk_base is deleted by ~Tier —
  /// i.e. when the last snapshot pinning this tier is gone. Set for disk
  /// tiers produced by background merges; the base tier's bundle is user
  /// data and is never owned.
  std::string disk_base;
  bool owns_disk_files = false;

  bool is_memtable = false;

  TierInfo info;

  const suffixtree::TreeView* view() const {
    return memory_tree.has_value()
               ? static_cast<const suffixtree::TreeView*>(&*memory_tree)
               : static_cast<const suffixtree::TreeView*>(disk_tree.get());
  }

  /// The tier's node summaries, wherever they live (in-memory vector or
  /// the disk bundle's summary section); empty when the tier has none.
  std::span<const suffixtree::NodeSummaryRecord> summaries() const {
    if (!memory_summaries.empty()) return memory_summaries;
    if (disk_tree != nullptr) return disk_tree->node_summaries();
    return {};
  }
};

/// Derives the TierInfo counters from a fully assembled tier (tree + db
/// fragment in place).
TierInfo ComputeTierInfo(const Tier& tier);

/// Per-symbol value hulls of the tier's symbol tables — the input
/// suffixtree::BuildNodeSummaries aggregates. Category symbols map to
/// their fitted intervals; dictionary symbols to point hulls.
std::vector<suffixtree::SymbolHull> TierSymbolHulls(const Tier& tier);

}  // namespace tswarp::core

#endif  // TSWARP_CORE_TIER_H_
