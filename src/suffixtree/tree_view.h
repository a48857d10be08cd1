#ifndef TSWARP_SUFFIXTREE_TREE_VIEW_H_
#define TSWARP_SUFFIXTREE_TREE_VIEW_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/types.h"

namespace tswarp::suffixtree {

/// Node handle inside a TreeView. Dense ids; kNilNode marks "none".
using NodeId = std::uint32_t;
inline constexpr NodeId kNilNode = 0xFFFFFFFFu;

/// One stored suffix: sequence `seq`, starting position `pos`, and the
/// length `run` of the run of equal symbols starting at `pos` (1 for dense
/// trees' bookkeeping; > 1 values matter only for sparse trees, where the
/// occurrence also represents the non-stored suffixes pos+1 .. pos+run-1).
struct OccurrenceRec {
  SeqId seq;
  Pos pos;
  Pos run;

  friend bool operator==(const OccurrenceRec&, const OccurrenceRec&) = default;
};

/// An edge label as a reference into the tree's symbol text
/// (TreeView::Text()): `len` symbols starting at `offset`. Labels are never
/// copied out of the text, so a tree stores O(text) label symbols.
struct LabelRef {
  std::uint64_t offset = 0;
  std::uint32_t len = 0;
};

/// Children of one node. Edge labels are references into the view's text;
/// Label() returns a span straight into it, valid for the view's lifetime.
struct Children {
  struct Edge {
    NodeId child;
    std::uint32_t label_len;     // >= 1 for non-root edges.
    std::uint64_t label_offset;  // Into `text`.
  };

  std::span<const Symbol> text;
  std::vector<Edge> edges;

  void Clear() {
    text = {};
    edges.clear();
  }

  std::span<const Symbol> Label(const Edge& e) const {
    return std::span<const Symbol>(text.data() + e.label_offset, e.label_len);
  }

  Symbol FirstSymbol(const Edge& e) const { return text[e.label_offset]; }

  LabelRef Ref(const Edge& e) const { return {e.label_offset, e.label_len}; }
};

/// Reusable buffers for subtree-occurrence collection (see
/// TreeView::CollectSubtreeOccurrences below).
struct SubtreeScratch {
  std::vector<NodeId> stack;
  Children children;
};

/// Read-only interface over a generalized suffix tree, implemented by the
/// in-memory SuffixTree and the disk-backed DiskSuffixTree. The similarity
/// searchers, the merge algorithm, and the serializer are all written
/// against this interface.
class TreeView {
 public:
  virtual ~TreeView() = default;

  virtual NodeId Root() const = 0;

  /// Fills `out` (cleared first) with the children of `node` and their edge
  /// labels.
  virtual void GetChildren(NodeId node, Children* out) const = 0;

  /// Appends the occurrences attached to `node` (suffixes that end exactly
  /// at this node) to `out`.
  virtual void GetOccurrences(NodeId node,
                              std::vector<OccurrenceRec>* out) const = 0;

  /// Number of occurrences in the subtree rooted at `node` (computed at
  /// finalize time).
  virtual std::uint32_t SubtreeOccCount(NodeId node) const = 0;

  /// Maximum `run` value over all occurrences in the subtree of `node`
  /// (finalize-time stat). Used by the sparse searcher to discount the
  /// Theorem-1 pruning bound so non-stored suffixes are never dismissed.
  virtual Pos MaxRun(NodeId node) const = 0;

  virtual std::uint64_t NumNodes() const = 0;
  virtual std::uint64_t NumOccurrences() const = 0;

  /// The symbol text every edge label references: for a tree built over
  /// a database, its sequences concatenated in id order. Valid for the
  /// view's lifetime.
  virtual std::span<const Symbol> Text() const = 0;

  /// Label symbols the tree stores: the length of its text.
  virtual std::uint64_t NumLabelSymbols() const = 0;

  /// Sum of the edge-label lengths over all edges: the label symbols a
  /// tree that copies every label would store (the accounting behind the
  /// paper's Table 1). Computed from the node records, not stored.
  virtual std::uint64_t MaterializedLabelSymbols() const = 0;

  /// Stored index size in bytes: header + node records + occurrence
  /// records + the text, matching the serialized footprint.
  virtual std::uint64_t SizeBytes() const = 0;

  /// The paper's Table-1 index size: SizeBytes() with the text replaced by
  /// every edge label materialized. A derived figure for comparison with
  /// the paper; no tree stores it.
  std::uint64_t Table1Bytes() const {
    return SizeBytes() - NumLabelSymbols() * sizeof(Symbol) +
           MaterializedLabelSymbols() * sizeof(Symbol);
  }

  /// Hint that the caller is about to scan the whole tree front to back
  /// (merge, serialization). Disk-backed views prime their sequential
  /// read-ahead; in-memory views ignore it.
  virtual void HintSequentialScan() const {}

  /// DFS helper: appends every occurrence in the subtree of `node`.
  void CollectSubtreeOccurrences(NodeId node,
                                 std::vector<OccurrenceRec>* out) const;

  /// Scratch-reusing variant for hot-path callers (the search driver
  /// collects once per matched edge): identical traversal and output
  /// order, but the DFS stack and children buffer live in `scratch` and
  /// are reused across calls, so a warmed-up caller allocates nothing.
  void CollectSubtreeOccurrences(NodeId node, std::vector<OccurrenceRec>* out,
                                 SubtreeScratch* scratch) const;
};

/// Write interface for producing a suffix tree node-by-node; implemented by
/// the in-memory tree and the disk writer. Used by the merge algorithm and
/// the serializer.
class TreeSink {
 public:
  virtual ~TreeSink() = default;

  /// Declares the symbol text that the labels of later AddNode calls
  /// reference. Called once, before any non-root node; `text` need only
  /// stay valid for the call (sinks copy or persist it).
  virtual void SetText(std::span<const Symbol> text) = 0;

  /// SetText for a text the caller gives up: sinks that keep the text in
  /// memory take the vector instead of copying it.
  virtual void TakeText(std::vector<Symbol> text) { SetText(text); }

  /// Adds a node under `parent` whose edge label is `label`, a reference
  /// into the text given to SetText. Pass kNilNode as parent to create the
  /// root (label ignored, must be first).
  virtual NodeId AddNode(NodeId parent, LabelRef label) = 0;

  /// Attaches an occurrence to an existing node.
  virtual void AddOccurrence(NodeId node, const OccurrenceRec& occ) = 0;

  /// Computes subtree statistics; must be called exactly once, after all
  /// nodes and occurrences are added.
  virtual void Finalize() = 0;
};

}  // namespace tswarp::suffixtree

#endif  // TSWARP_SUFFIXTREE_TREE_VIEW_H_
