#include "suffixtree/merge.h"

#include <algorithm>
#include <span>
#include <utility>
#include <vector>

#include "common/logging.h"

namespace tswarp::suffixtree {
namespace {

/// An edge label pending in the merge: its symbols in the source view and
/// its reference into the output text.
struct Pending {
  std::span<const Symbol> symbols;
  std::uint64_t ref;

  std::size_t size() const { return symbols.size(); }
  Symbol front() const { return symbols.front(); }
  LabelRef Ref() const {
    return {ref, static_cast<std::uint32_t>(symbols.size())};
  }
  LabelRef Prefix(std::size_t k) const {
    return {ref, static_cast<std::uint32_t>(k)};
  }
  Pending Drop(std::size_t k) const { return {symbols.subspan(k), ref + k}; }
};

/// Recursive merge machinery. Each recursion frame owns its Children
/// buffers; label spans passed down the recursion point into the source
/// views' texts.
class Merger {
 public:
  Merger(const TreeView& a, const TreeView& b, TreeSink* out,
         const std::atomic<bool>* cancel, MergeText text)
      : a_(a), b_(b), out_(out), cancel_(cancel), text_(text) {}

  /// Returns false iff the merge was cancelled (the sink is then left
  /// unfinalized and must be discarded).
  bool Run() {
    // The merge visits both inputs roughly front to back (node ids are
    // allocated in creation order); let disk-backed views stream.
    a_.HintSequentialScan();
    b_.HintSequentialScan();
    const std::span<const Symbol> text_a = a_.Text();
    const std::span<const Symbol> text_b = b_.Text();
    if (text_ == MergeText::kShared) {
      TSW_CHECK(text_a.size() == text_b.size())
          << "shared-text merge over texts of " << text_a.size() << " and "
          << text_b.size() << " symbols";
      TSW_DCHECK(std::equal(text_a.begin(), text_a.end(), text_b.begin()));
      out_->SetText(text_a);
    } else {
      std::vector<Symbol> joined;
      joined.reserve(text_a.size() + text_b.size());
      joined.insert(joined.end(), text_a.begin(), text_a.end());
      joined.insert(joined.end(), text_b.begin(), text_b.end());
      out_->TakeText(std::move(joined));
      b_shift_ = text_a.size();
    }
    const NodeId root = out_->AddNode(kNilNode, {});
    try {
      MergeNodes(a_.Root(), b_.Root(), root);
    } catch (const Cancelled&) {
      return false;
    }
    out_->Finalize();
    return true;
  }

 private:
  /// Internal unwinding token for cooperative cancellation; never escapes
  /// MergeTrees.
  struct Cancelled {};

  /// Cancellation poll, amortized to one relaxed load every
  /// kCancelPollNodes output nodes. Throwing unwinds the whole recursion
  /// in one step, leaving the sink unfinalized.
  void PollCancel() {
    static constexpr std::uint32_t kCancelPollNodes = 256;
    if (cancel_ == nullptr) return;
    if (++cancel_polls_ < kCancelPollNodes) return;
    cancel_polls_ = 0;
    if (cancel_->load(std::memory_order_relaxed)) throw Cancelled{};
  }

  /// The label of edge `e` of view `v`, referenced in the output text.
  Pending Label(const TreeView& v, const Children& c,
                const Children::Edge& e) const {
    return {c.Label(e), e.label_offset + (&v == &b_ ? b_shift_ : 0)};
  }

  void CopyOccurrences(const TreeView& v, NodeId from, NodeId to) {
    occ_buf_.clear();
    v.GetOccurrences(from, &occ_buf_);
    for (const OccurrenceRec& o : occ_buf_) out_->AddOccurrence(to, o);
  }

  /// Copies the subtree of `node` (in `v`) under `out_parent`, where the
  /// edge into `node` still has `label` pending.
  void CopySubtree(const TreeView& v, const Pending& label, NodeId node,
                   NodeId out_parent) {
    PollCancel();
    const NodeId m = out_->AddNode(out_parent, label.Ref());
    CopyOccurrences(v, node, m);
    Children children;
    v.GetChildren(node, &children);
    for (const Children::Edge& e : children.edges) {
      CopySubtree(v, Label(v, children, e), e.child, m);
    }
  }

  /// Merges two *nodes* (both positions are exactly at a node). The output
  /// node `on` already exists; this fills its occurrences and children.
  void MergeNodes(NodeId na, NodeId nb, NodeId on) {
    PollCancel();
    CopyOccurrences(a_, na, on);
    CopyOccurrences(b_, nb, on);
    Children ca, cb;
    a_.GetChildren(na, &ca);
    b_.GetChildren(nb, &cb);
    std::vector<bool> b_used(cb.edges.size(), false);
    for (const Children::Edge& ea : ca.edges) {
      const Symbol sa = ca.FirstSymbol(ea);
      std::size_t match = cb.edges.size();
      for (std::size_t i = 0; i < cb.edges.size(); ++i) {
        if (!b_used[i] && cb.FirstSymbol(cb.edges[i]) == sa) {
          match = i;
          break;
        }
      }
      if (match == cb.edges.size()) {
        CopySubtree(a_, Label(a_, ca, ea), ea.child, on);
      } else {
        b_used[match] = true;
        const Children::Edge& eb = cb.edges[match];
        MergeEdges(Label(a_, ca, ea), ea.child, Label(b_, cb, eb), eb.child,
                   on);
      }
    }
    for (std::size_t i = 0; i < cb.edges.size(); ++i) {
      if (!b_used[i]) {
        CopySubtree(b_, Label(b_, cb, cb.edges[i]), cb.edges[i].child, on);
      }
    }
  }

  /// Merges two edges with equal first symbols under output node `on`.
  void MergeEdges(const Pending& la, NodeId child_a, const Pending& lb,
                  NodeId child_b, NodeId on) {
    std::size_t k = 0;
    const std::size_t limit = std::min(la.size(), lb.size());
    while (k < limit && la.symbols[k] == lb.symbols[k]) ++k;
    TSW_DCHECK(k >= 1);
    if (k == la.size() && k == lb.size()) {
      const NodeId m = out_->AddNode(on, la.Ref());
      MergeNodes(child_a, child_b, m);
    } else if (k == la.size()) {
      // A reaches its node; B is still mid-edge with lb[k:] pending.
      const NodeId m = out_->AddNode(on, la.Ref());
      MergeNodeWithEdge(a_, child_a, b_, lb.Drop(k), child_b, m);
    } else if (k == lb.size()) {
      const NodeId m = out_->AddNode(on, lb.Ref());
      MergeNodeWithEdge(b_, child_b, a_, la.Drop(k), child_a, m);
    } else {
      // Divergence strictly inside both edges: fresh branching node.
      const NodeId m = out_->AddNode(on, la.Prefix(k));
      CopySubtree(a_, la.Drop(k), child_a, m);
      CopySubtree(b_, lb.Drop(k), child_b, m);
    }
  }

  /// Merges node `nv` of view `v` with a pending edge (rest -> child_w) of
  /// view `w`, writing into existing output node `mo`.
  void MergeNodeWithEdge(const TreeView& v, NodeId nv, const TreeView& w,
                         const Pending& rest, NodeId child_w, NodeId mo) {
    CopyOccurrences(v, nv, mo);
    Children cv;
    v.GetChildren(nv, &cv);
    bool matched = false;
    for (const Children::Edge& e : cv.edges) {
      if (!matched && cv.FirstSymbol(e) == rest.front()) {
        matched = true;
        // Careful with argument order: MergeEdges is symmetric in structure
        // but binds its first edge to a_ and second to b_; dispatch on
        // which view `v` actually is.
        if (&v == &a_) {
          MergeEdges(Label(v, cv, e), e.child, rest, child_w, mo);
        } else {
          MergeEdges(rest, child_w, Label(v, cv, e), e.child, mo);
        }
      } else {
        CopySubtree(v, Label(v, cv, e), e.child, mo);
      }
    }
    if (!matched) CopySubtree(w, rest, child_w, mo);
  }

  const TreeView& a_;
  const TreeView& b_;
  TreeSink* out_;
  const std::atomic<bool>* cancel_;
  const MergeText text_;
  // Added to b's label references when the output text is a's text
  // followed by b's.
  std::uint64_t b_shift_ = 0;
  std::uint32_t cancel_polls_ = 0;
  std::vector<OccurrenceRec> occ_buf_;
};

}  // namespace

bool MergeTrees(const TreeView& a, const TreeView& b, TreeSink* out,
                const std::atomic<bool>* cancel, MergeText text) {
  TSW_CHECK(out != nullptr);
  return Merger(a, b, out, cancel, text).Run();
}

void CopyTree(const TreeView& view, TreeSink* sink) {
  TSW_CHECK(sink != nullptr);
  view.HintSequentialScan();
  sink->SetText(view.Text());
  const NodeId root = sink->AddNode(kNilNode, {});
  std::vector<OccurrenceRec> occ_buf;
  view.GetOccurrences(view.Root(), &occ_buf);
  for (const OccurrenceRec& o : occ_buf) sink->AddOccurrence(root, o);

  // Explicit stack to copy arbitrarily deep trees.
  struct Frame {
    NodeId src;
    NodeId dst;
  };
  std::vector<Frame> stack = {{view.Root(), root}};
  Children children;
  std::vector<OccurrenceRec> occs;
  while (!stack.empty()) {
    Frame f = stack.back();
    stack.pop_back();
    view.GetChildren(f.src, &children);
    for (const Children::Edge& e : children.edges) {
      const NodeId m = sink->AddNode(f.dst, children.Ref(e));
      occs.clear();
      view.GetOccurrences(e.child, &occs);
      for (const OccurrenceRec& o : occs) sink->AddOccurrence(m, o);
      stack.push_back({e.child, m});
    }
  }
  sink->Finalize();
}

}  // namespace tswarp::suffixtree
