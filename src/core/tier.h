#ifndef TSWARP_CORE_TIER_H_
#define TSWARP_CORE_TIER_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "categorize/alphabet.h"
#include "common/types.h"
#include "seqdb/sequence_database.h"
#include "suffixtree/disk_tree.h"
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
  /// Bytes mmap'd for this tier; 0 for in-memory tiers.
  std::uint64_t mapped_bytes = 0;
};

/// One immutable tier of an index: a suffix tree over a contiguous range
/// of sequences [first_seq, first_seq + sequences), its own symbol tables,
/// and the raw values it indexes. Everything inside a tier is addressed by
/// *tier-local* sequence ids (0-based over the tier's own database
/// fragment); searches rebase matches to global ids with `first_seq`
/// (DriverConfig::seq_base).
///
/// A monolithic Index is exactly one tier over the external database; a
/// TieredIndex stacks a base tier, sealed appended tiers, and a memtable
/// tier. Tiers are reference-counted (shared_ptr<const Tier>) and pinned
/// by every snapshot that includes them: a tier retired by a background
/// merge stays fully alive — tree, mappings, database fragment — until
/// the last in-flight query drops its snapshot. A merged disk tier's file
/// has no name (suffixtree::WriteScratchTree) and dies with the tier.
struct Tier {
  Tier() = default;
  Tier(const Tier&) = delete;
  Tier& operator=(const Tier&) = delete;

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

  bool is_memtable = false;

  TierInfo info;

  const suffixtree::TreeView* view() const {
    if (memory_tree.has_value()) return &*memory_tree;
    return disk_tree.get();
  }
};

/// Derives the TierInfo counters from a fully assembled tier (tree + db
/// fragment in place).
inline TierInfo ComputeTierInfo(const Tier& tier) {
  const suffixtree::TreeView* view = tier.view();
  TierInfo info;
  info.first_seq = tier.first_seq;
  info.sequences = tier.db->size();
  info.elements = tier.db->TotalElements();
  info.nodes = view->NumNodes();
  info.occurrences = view->NumOccurrences();
  info.index_bytes = view->SizeBytes();
  info.table1_bytes = view->Table1Bytes();
  info.on_disk = tier.disk_tree != nullptr;
  info.memtable = tier.is_memtable;
  info.mapped_bytes = info.on_disk ? tier.disk_tree->MappedBytes() : 0;
  return info;
}

}  // namespace tswarp::core

#endif  // TSWARP_CORE_TIER_H_
