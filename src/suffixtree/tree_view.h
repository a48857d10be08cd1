#ifndef TSWARP_SUFFIXTREE_TREE_VIEW_H_
#define TSWARP_SUFFIXTREE_TREE_VIEW_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/logging.h"
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

namespace internal {

/// One node: its edge label as a (text offset, length) reference, the
/// heads of its child and occurrence chains (kNilNode / kNilOcc end them),
/// the next node in its parent's child chain, and the subtree statistics
/// Finalize computes. The 28-byte record a SuffixTree holds and the
/// nodes section of a disk bundle stores as it is.
struct NodeRecord {
  std::uint32_t label_offset;  // Symbol index into the text.
  std::uint32_t label_len;
  NodeId first_child;
  NodeId next_sibling;
  std::uint32_t first_occ;
  std::uint32_t subtree_occ;
  Pos max_run;
};
static_assert(sizeof(NodeRecord) == 28);

/// One stored suffix with the link to the next occurrence of its node
/// (kNilOcc ends the chain): the 16-byte record a SuffixTree holds and the
/// occurrence section of a disk bundle stores as it is.
struct OccRecord {
  SeqId seq;
  Pos pos;
  Pos run;
  std::uint32_t next;
};
static_assert(sizeof(OccRecord) == 16);

inline constexpr std::uint32_t kNilOcc = 0xFFFFFFFFu;

/// The header page that starts every bundle; SizeBytes() counts it for every
/// tree, so an in-memory tree reports the bytes its bundle would take.
inline constexpr std::uint64_t kHeaderBytes = 4096;

}  // namespace internal

/// Read-only view of a generalized suffix tree over three spans: its node
/// records, its occurrence records and its symbol text. The in-memory
/// SuffixTree points them at its own vectors when it is finalized; the
/// disk-backed DiskSuffixTree points them into its mappings at Open, after
/// checking every record. The similarity searchers, the merge algorithm,
/// and the serializer all read trees through this one class.
///
/// Thread safety: every accessor is const and reads only the spans, so
/// any number of threads may read one view; caller-visible buffers are
/// out-parameters owned by the calling worker.
class TreeView {
 public:
  NodeId Root() const { return 0; }

  /// Fills `out` (cleared first) with the children of `node` and their edge
  /// labels.
  void GetChildren(NodeId node, Children* out) const {
    out->text = text_;
    out->edges.clear();
    for (NodeId c = Node(node).first_child; c != kNilNode;) {
      const internal::NodeRecord& child = Node(c);
      out->edges.push_back({c, child.label_len, child.label_offset});
      c = child.next_sibling;
    }
  }

  /// Appends the occurrences attached to `node` (suffixes that end exactly
  /// at this node) to `out`.
  void GetOccurrences(NodeId node, std::vector<OccurrenceRec>* out) const {
    for (std::uint32_t o = Node(node).first_occ; o != internal::kNilOcc;) {
      TSW_DCHECK(o < occs_.size());
      const internal::OccRecord& occ = occs_[o];
      out->push_back({occ.seq, occ.pos, occ.run});
      o = occ.next;
    }
  }

  /// Number of occurrences in the subtree rooted at `node` (computed at
  /// finalize time).
  std::uint32_t SubtreeOccCount(NodeId node) const {
    return Node(node).subtree_occ;
  }

  /// Maximum `run` value over all occurrences in the subtree of `node`
  /// (finalize-time stat). Used by the sparse searcher to discount the
  /// Theorem-1 pruning bound so non-stored suffixes are never dismissed.
  Pos MaxRun(NodeId node) const { return Node(node).max_run; }

  std::uint64_t NumNodes() const { return nodes_.size(); }
  std::uint64_t NumOccurrences() const { return occs_.size(); }

  /// The symbol text every edge label references: for a tree built over
  /// a database, its sequences concatenated in id order. Valid for the
  /// view's lifetime.
  std::span<const Symbol> Text() const { return text_; }

  /// Label symbols the tree stores: the length of its text.
  std::uint64_t NumLabelSymbols() const { return text_.size(); }

  /// Sum of the edge-label lengths over all edges: the label symbols a
  /// tree that copies every label would store (the accounting behind the
  /// paper's Table 1). Summed from the node records when the spans are
  /// set, not stored in them.
  std::uint64_t MaterializedLabelSymbols() const {
    return materialized_label_symbols_;
  }

  /// Stored index size in bytes, the tree's bundle size: the header
  /// page + 28 B per node + 16 B per occurrence + 4 B per text symbol.
  std::uint64_t SizeBytes() const {
    return internal::kHeaderBytes +
           NumNodes() * sizeof(internal::NodeRecord) +
           NumOccurrences() * sizeof(internal::OccRecord) +
           NumLabelSymbols() * sizeof(Symbol);
  }

  /// The paper's Table-1 index size: SizeBytes() with the text replaced by
  /// every edge label materialized. A derived figure for comparison with
  /// the paper; no tree stores it.
  std::uint64_t Table1Bytes() const {
    return SizeBytes() - NumLabelSymbols() * sizeof(Symbol) +
           MaterializedLabelSymbols() * sizeof(Symbol);
  }

  /// The node and occurrence records as a bundle's node and occurrence
  /// sections store them, in id order.
  std::span<const internal::NodeRecord> NodeRecords() const { return nodes_; }
  std::span<const internal::OccRecord> OccRecords() const { return occs_; }

  /// DFS helper: appends every occurrence in the subtree of `node`.
  void CollectSubtreeOccurrences(NodeId node,
                                 std::vector<OccurrenceRec>* out) const {
    SubtreeScratch scratch;
    CollectSubtreeOccurrences(node, out, &scratch);
  }

  /// Scratch-reusing variant for hot-path callers (the search driver
  /// collects once per matched edge): identical traversal and output
  /// order, but the DFS stack and children buffer live in `scratch` and
  /// are reused across calls, so a warmed-up caller allocates nothing.
  void CollectSubtreeOccurrences(NodeId node, std::vector<OccurrenceRec>* out,
                                 SubtreeScratch* scratch) const {
    std::vector<NodeId>& stack = scratch->stack;
    stack.assign(1, node);
    while (!stack.empty()) {
      const NodeId n = stack.back();
      stack.pop_back();
      GetOccurrences(n, out);
      GetChildren(n, &scratch->children);
      for (const Children::Edge& e : scratch->children.edges) {
        stack.push_back(e.child);
      }
    }
  }

 protected:
  /// Only the trees that own the records make views.
  TreeView() = default;

  /// Points the view at a tree's records and text. `nodes` holds at least
  /// the root, and every id and label range in them is valid.
  void SetRecords(std::span<const internal::NodeRecord> nodes,
                  std::span<const internal::OccRecord> occs,
                  std::span<const Symbol> text,
                  std::uint64_t materialized_label_symbols) {
    nodes_ = nodes;
    occs_ = occs;
    text_ = text;
    materialized_label_symbols_ = materialized_label_symbols;
  }

 private:
  const internal::NodeRecord& Node(NodeId id) const {
    TSW_DCHECK(id < nodes_.size());
    return nodes_[id];
  }

  std::span<const internal::NodeRecord> nodes_;
  std::span<const internal::OccRecord> occs_;
  std::span<const Symbol> text_;
  std::uint64_t materialized_label_symbols_ = 0;
};

}  // namespace tswarp::suffixtree

#endif  // TSWARP_SUFFIXTREE_TREE_VIEW_H_
