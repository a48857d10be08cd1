#ifndef TSWARP_SUFFIXTREE_SUFFIX_TREE_H_
#define TSWARP_SUFFIXTREE_SUFFIX_TREE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "suffixtree/symbol_database.h"
#include "suffixtree/tree_view.h"

namespace tswarp::suffixtree {

/// In-memory generalized suffix tree over symbol sequences.
///
/// The tree owns its symbol text (shared, immutable): for a tree built
/// over a database, the database's sequences concatenated in id order.
/// Every edge label is a (text offset, length) reference into it, the
/// usual suffix-tree representation, so the tree stores O(text) label
/// symbols and the database it was built from may be destroyed after
/// Build(). Its node and occurrence vectors hold the records a bundle's
/// node and occurrence sections store, so SizeBytes() is the bundle size and
/// WriteTreeToDisk writes both vectors as they are; Table1Bytes() reports
/// what materialized labels would cost, the quantity Table 1 of the paper
/// reports.
///
/// Construction is suffix-by-suffix insertion (see SuffixTreeBuilder) or
/// structural, node by node through SetText/AddNode/AddOccurrence/Finalize
/// (MergeTrees, CopyTree). Every tree the library builds, in memory or
/// for a disk bundle, is a SuffixTree; WriteTreeToDisk writes one out.
///
/// The TreeView accessors read the tree once Finalize() has pointed them
/// at its records; nodes and occurrences are added before that, never
/// after.
///
/// Node, occurrence and text offsets are 32-bit. A tree that would
/// outgrow them latches OutOfRange in status() and ignores further nodes
/// and occurrences; callers must check status() before using the tree.
class SuffixTree : public TreeView {
 public:
  SuffixTree();

  SuffixTree(const SuffixTree&) = delete;
  SuffixTree& operator=(const SuffixTree&) = delete;
  SuffixTree(SuffixTree&&) = default;
  SuffixTree& operator=(SuffixTree&&) = default;

  // --- Structural construction ---

  /// Declares the symbol text that the labels of later AddNode calls
  /// reference; a copy is kept. Called before any non-root node.
  void SetText(std::span<const Symbol> text);

  /// SetText for a text the caller gives up: the tree takes the vector.
  void TakeText(std::vector<Symbol> text);

  /// Adds a node under `parent` whose edge label is `label`, a reference
  /// into the text, prepended to the parent's child chain. Pass kNilNode
  /// as parent for the root (label ignored, must be first): the
  /// constructor already made it, so this returns 0.
  NodeId AddNode(NodeId parent, LabelRef label);

  /// Prepends an occurrence to an existing node's chain.
  void AddOccurrence(NodeId node, const OccurrenceRec& occ);

  /// Computes subtree statistics and points the TreeView at the records;
  /// must be called exactly once, after all nodes and occurrences are
  /// added.
  void Finalize();

  bool finalized() const { return finalized_; }

  /// OK, or the OutOfRange latched when the tree outgrew its 32-bit ids.
  const Status& status() const { return status_; }

 private:
  friend class SuffixTreeBuilder;

  /// Installs `text` after checking that its offsets fit the 32-bit node
  /// records.
  void AdoptText(std::shared_ptr<const std::vector<Symbol>> text);

  /// Id the next node will get, or kNilNode (with status_ latched) when
  /// the 32-bit id space is exhausted.
  NodeId NextNodeId();

  std::shared_ptr<const std::vector<Symbol>> text_;
  std::vector<internal::NodeRecord> nodes_;
  std::vector<internal::OccRecord> occurrences_;
  Status status_;
  bool finalized_ = false;
};

/// Options controlling which suffixes of a sequence are inserted.
struct BuildOptions {
  /// Sparse rule (paper Section 6.1): store suffix p only when p == 0 or
  /// CS[p] != CS[p-1]. Non-stored suffixes stay reachable through the
  /// occurrence `run` fields.
  bool sparse = false;

  /// Skip suffixes shorter than this (warping-window extension, paper §8).
  /// 0 disables the bound.
  Pos min_suffix_length = 0;

  /// Truncate inserted suffixes to this many symbols (0 = unlimited).
  /// Together with min_suffix_length this realizes the paper's
  /// length-bounded index.
  Pos max_suffix_length = 0;
};

/// Incremental construction of a SuffixTree by inserting suffixes.
///
/// A child lookup walks the parent's sibling chain, comparing each child's
/// first label symbol: at the usual fanout of 1-3 those are the records
/// the label comparison reads next anyway. Only wide nodes (kWideFanout
/// or more children: the root, large alphabets, dictionary nodes near the
/// root) keep a (node, first-symbol) hash index. The per-node child
/// counts and the index are discarded when Build() is called.
/// The tree references the database's text (SymbolText), which it shares,
/// so the database may be destroyed once the builder exists.
class SuffixTreeBuilder {
 public:
  explicit SuffixTreeBuilder(const SymbolDatabase* db,
                             BuildOptions options = {});

  /// Builds over an existing text: every tree built this way references
  /// the same text (disk construction builds each batch tree this way).
  explicit SuffixTreeBuilder(std::shared_ptr<const SymbolText> text,
                             BuildOptions options = {});

  /// Inserts the suffixes of sequence `id` selected by the build options.
  void InsertSequence(SeqId id);

  /// Inserts the single suffix starting at (id, start); `run` must be
  /// the run length of equal symbols at (id, start) (passed in to avoid
  /// rescanning).
  void InsertSuffix(SeqId id, Pos start, Pos run);

  /// Number of suffixes inserted / skipped so far (compaction accounting,
  /// paper Section 6: r = non-stored / total).
  std::uint64_t stored_suffixes() const { return stored_suffixes_; }
  std::uint64_t skipped_suffixes() const { return skipped_suffixes_; }

  /// Finalizes statistics and returns the tree. The builder is spent.
  /// Check the tree's status(): a text or tree beyond 32-bit offsets
  /// yields OutOfRange instead of a wrapped tree.
  SuffixTree Build();

 private:
  /// Children a node needs before its children are indexed by symbol.
  static constexpr std::uint8_t kWideFanout = 8;

  NodeId FindChild(NodeId parent, Symbol s) const;
  /// Counts `child`, just chained under `parent`, and indexes it if
  /// `parent` is wide (all of parent's children when it just became so).
  void LinkChild(NodeId parent, Symbol s, NodeId child);
  /// Adds a leaf for text[offset, offset + len) under `parent`, holding
  /// `occ`.
  void AddLeaf(NodeId parent, std::uint64_t offset, std::size_t len,
               const OccurrenceRec& occ);

  std::shared_ptr<const SymbolText> text_;
  BuildOptions options_;
  SuffixTree tree_;
  // Per node: its number of children, saturating at kWideFanout.
  std::vector<std::uint8_t> child_count_;
  // (parent << 32 | symbol) -> child node, for wide parents only.
  std::unordered_map<std::uint64_t, NodeId> wide_index_;
  std::uint64_t stored_suffixes_ = 0;
  std::uint64_t skipped_suffixes_ = 0;
};

/// Convenience: builds a tree over every sequence of `db`.
SuffixTree BuildSuffixTree(const SymbolDatabase& db, BuildOptions options = {});

}  // namespace tswarp::suffixtree

#endif  // TSWARP_SUFFIXTREE_SUFFIX_TREE_H_
