#ifndef TSWARP_SUFFIXTREE_MERGE_H_
#define TSWARP_SUFFIXTREE_MERGE_H_

#include <atomic>
#include <vector>

#include "suffixtree/tree_view.h"

namespace tswarp::suffixtree {

/// Merges two generalized suffix trees into `out` by synchronized pre-order
/// traversal, combining the paths of common subsequences (the disk-based
/// incremental construction of Bieganski et al. used by the paper,
/// Section 4.1). The sources are only read through the TreeView interface,
/// so disk-resident trees stream through their buffer pools; the output is
/// written once through TreeSink.
///
/// Labels are carried through as references, never copied. How the
/// output's text relates to the inputs' is the caller's statement:
///   kConcatenate  the output's text is a's text followed by b's, and b's
///                 label references are shifted by the length of a's text
///                 (tier compaction, memtable appends);
///   kShared       a and b reference equal texts (disk construction: every
///                 batch tree references the one database text), and the
///                 output references that text too.
///
/// Complexity O(|A| + |B|) tree operations plus the symbol comparisons on
/// shared label prefixes. Finalize() is called on `out`.
///
/// `cancel` (optional) is polled periodically; when it becomes true the
/// merge unwinds and returns false WITHOUT finalizing `out` — the caller
/// must discard the partial sink (background tier compactions abort this
/// way on shutdown). Returns true on a completed, finalized merge.
enum class MergeText { kConcatenate, kShared };

bool MergeTrees(const TreeView& a, const TreeView& b, TreeSink* out,
                const std::atomic<bool>* cancel = nullptr,
                MergeText text = MergeText::kConcatenate);

/// Structural copy of `view` into `sink` (pre-order); the sink gets the
/// view's text, so labels keep their references. Finalize() is called on
/// `sink`. Used to serialize an in-memory tree to disk and vice versa.
void CopyTree(const TreeView& view, TreeSink* sink);

/// Read-only adaptor that rebases every occurrence's sequence id by a
/// fixed offset, leaving the structure and the text untouched. Tier
/// compaction merges two tiers whose occurrences are tier-local (each
/// tier's ids start at 0 over its own database fragment); wrapping the
/// second tier in SeqOffsetTreeView(b, a.num_sequences) makes the merged
/// tier's ids local to the concatenated fragment, just as MergeTrees
/// makes b's label references local to the concatenated text.
class SeqOffsetTreeView : public TreeView {
 public:
  SeqOffsetTreeView(const TreeView& base, SeqId offset)
      : base_(base), offset_(offset) {}

  NodeId Root() const override { return base_.Root(); }
  void GetChildren(NodeId node, Children* out) const override {
    base_.GetChildren(node, out);
  }
  void GetOccurrences(NodeId node,
                      std::vector<OccurrenceRec>* out) const override {
    const std::size_t first = out->size();
    base_.GetOccurrences(node, out);
    for (std::size_t i = first; i < out->size(); ++i) {
      (*out)[i].seq += offset_;
    }
  }
  std::uint32_t SubtreeOccCount(NodeId node) const override {
    return base_.SubtreeOccCount(node);
  }
  Pos MaxRun(NodeId node) const override { return base_.MaxRun(node); }
  std::uint64_t NumNodes() const override { return base_.NumNodes(); }
  std::uint64_t NumOccurrences() const override {
    return base_.NumOccurrences();
  }
  std::span<const Symbol> Text() const override { return base_.Text(); }
  std::uint64_t NumLabelSymbols() const override {
    return base_.NumLabelSymbols();
  }
  std::uint64_t MaterializedLabelSymbols() const override {
    return base_.MaterializedLabelSymbols();
  }
  std::uint64_t SizeBytes() const override { return base_.SizeBytes(); }
  void HintSequentialScan() const override { base_.HintSequentialScan(); }

 private:
  const TreeView& base_;
  SeqId offset_;
};

}  // namespace tswarp::suffixtree

#endif  // TSWARP_SUFFIXTREE_MERGE_H_
