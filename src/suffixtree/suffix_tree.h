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
/// Build(). SizeBytes() equals the serialized footprint; Table1Bytes()
/// reports what materialized labels would cost, the quantity Table 1 of
/// the paper reports.
///
/// Construction is suffix-by-suffix insertion (see SuffixTreeBuilder);
/// trees can also be produced structurally via the TreeSink interface (used
/// by MergeTrees and the disk loader).
///
/// Node, occurrence and text offsets are 32-bit. A tree that would
/// outgrow them latches OutOfRange in status() and ignores further nodes
/// and occurrences; callers must check status() before using the tree.
class SuffixTree : public TreeView, public TreeSink {
 public:
  SuffixTree();

  SuffixTree(const SuffixTree&) = delete;
  SuffixTree& operator=(const SuffixTree&) = delete;
  SuffixTree(SuffixTree&&) = default;
  SuffixTree& operator=(SuffixTree&&) = default;

  // --- TreeView ---
  NodeId Root() const override { return 0; }
  void GetChildren(NodeId node, Children* out) const override;
  void GetOccurrences(NodeId node,
                      std::vector<OccurrenceRec>* out) const override;
  std::uint32_t SubtreeOccCount(NodeId node) const override;
  Pos MaxRun(NodeId node) const override;
  std::uint64_t NumNodes() const override { return nodes_.size(); }
  std::uint64_t NumOccurrences() const override { return occurrences_.size(); }
  std::span<const Symbol> Text() const override { return *text_; }
  std::uint64_t NumLabelSymbols() const override { return text_->size(); }
  std::uint64_t MaterializedLabelSymbols() const override;
  std::uint64_t SizeBytes() const override;

  // --- TreeSink ---
  void SetText(std::span<const Symbol> text) override;
  void TakeText(std::vector<Symbol> text) override;
  NodeId AddNode(NodeId parent, LabelRef label) override;
  void AddOccurrence(NodeId node, const OccurrenceRec& occ) override;
  void Finalize() override;

  bool finalized() const { return finalized_; }

  /// OK, or the OutOfRange latched when the tree outgrew its 32-bit ids.
  const Status& status() const { return status_; }

 private:
  friend class SuffixTreeBuilder;

  struct Node {
    std::uint32_t label_begin = 0;  // Offset into the text.
    std::uint32_t label_len = 0;
    NodeId first_child = kNilNode;
    NodeId next_sibling = kNilNode;
    std::uint32_t first_occ = kNilOcc;
    std::uint32_t subtree_occ = 0;
    Pos max_run = 0;
  };

  struct Occ {
    SeqId seq;
    Pos pos;
    Pos run;
    std::uint32_t next;
  };

  static constexpr std::uint32_t kNilOcc = 0xFFFFFFFFu;

  /// Installs `text` after checking that its offsets fit the 32-bit node
  /// records.
  void AdoptText(std::shared_ptr<const std::vector<Symbol>> text);

  /// Id the next node will get, or kNilNode (with status_ latched) when
  /// the 32-bit id space is exhausted.
  NodeId NextNodeId();

  std::shared_ptr<const std::vector<Symbol>> text_;
  std::vector<Node> nodes_;
  std::vector<Occ> occurrences_;
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

/// Incremental construction of a SuffixTree by inserting suffixes. Keeps a
/// (node, first-symbol) hash index that is discarded when Build() is called.
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
  NodeId FindChild(NodeId parent, Symbol s) const;
  void LinkChild(NodeId parent, Symbol s, NodeId child);

  std::shared_ptr<const SymbolText> text_;
  BuildOptions options_;
  SuffixTree tree_;
  // (parent << 32 | symbol) -> child node.
  std::unordered_map<std::uint64_t, NodeId> child_index_;
  std::uint64_t stored_suffixes_ = 0;
  std::uint64_t skipped_suffixes_ = 0;
};

/// Convenience: builds a tree over every sequence of `db`.
SuffixTree BuildSuffixTree(const SymbolDatabase& db, BuildOptions options = {});

}  // namespace tswarp::suffixtree

#endif  // TSWARP_SUFFIXTREE_SUFFIX_TREE_H_
