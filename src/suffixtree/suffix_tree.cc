#include "suffixtree/suffix_tree.h"

#include <algorithm>

#include "common/logging.h"

namespace tswarp::suffixtree {
namespace {

// Serialized record sizes; SizeBytes() reports the on-disk footprint so
// in-memory and disk trees are comparable.
constexpr std::uint64_t kNodeRecordBytes = 32;
constexpr std::uint64_t kOccRecordBytes = 16;
constexpr std::uint64_t kLabelSymbolBytes = sizeof(Symbol);
constexpr std::uint64_t kHeaderBytes = 64;

std::shared_ptr<const SymbolText> TextOf(const SymbolDatabase* db) {
  TSW_CHECK(db != nullptr);
  return std::make_shared<const SymbolText>(*db);
}

std::uint64_t ChildKey(NodeId parent, Symbol s) {
  return (static_cast<std::uint64_t>(parent) << 32) |
         static_cast<std::uint32_t>(s);
}

}  // namespace

SuffixTree::SuffixTree()
    : text_(std::make_shared<const std::vector<Symbol>>()) {
  nodes_.push_back(Node{});  // Root: id 0, empty label.
}

void SuffixTree::GetChildren(NodeId node, Children* out) const {
  out->Clear();
  TSW_DCHECK(node < nodes_.size());
  out->text = *text_;
  for (NodeId c = nodes_[node].first_child; c != kNilNode;
       c = nodes_[c].next_sibling) {
    const Node& cn = nodes_[c];
    out->edges.push_back({c, cn.label_len, cn.label_begin});
  }
}

void SuffixTree::GetOccurrences(NodeId node,
                                std::vector<OccurrenceRec>* out) const {
  TSW_DCHECK(node < nodes_.size());
  for (std::uint32_t o = nodes_[node].first_occ; o != kNilOcc;
       o = occurrences_[o].next) {
    const Occ& occ = occurrences_[o];
    out->push_back({occ.seq, occ.pos, occ.run});
  }
}

std::uint32_t SuffixTree::SubtreeOccCount(NodeId node) const {
  TSW_DCHECK(finalized_);
  return nodes_[node].subtree_occ;
}

Pos SuffixTree::MaxRun(NodeId node) const {
  TSW_DCHECK(finalized_);
  return nodes_[node].max_run;
}

std::uint64_t SuffixTree::MaterializedLabelSymbols() const {
  std::uint64_t total = 0;
  for (const Node& n : nodes_) total += n.label_len;
  return total;
}

std::uint64_t SuffixTree::SizeBytes() const {
  return kHeaderBytes + NumNodes() * kNodeRecordBytes +
         NumOccurrences() * kOccRecordBytes +
         NumLabelSymbols() * kLabelSymbolBytes;
}

void SuffixTree::AdoptText(std::shared_ptr<const std::vector<Symbol>> text) {
  TSW_CHECK(nodes_.size() == 1) << "the text must precede every edge";
  const StatusOr<std::uint32_t> fits =
      CheckedU32(text->size(), "text length (symbols)");
  if (!fits.ok() && status_.ok()) status_ = fits.status();
  text_ = std::move(text);
}

void SuffixTree::SetText(std::span<const Symbol> text) {
  AdoptText(std::make_shared<const std::vector<Symbol>>(text.begin(),
                                                        text.end()));
}

void SuffixTree::TakeText(std::vector<Symbol> text) {
  AdoptText(std::make_shared<const std::vector<Symbol>>(std::move(text)));
}

NodeId SuffixTree::NextNodeId() {
  if (!status_.ok()) return kNilNode;
  const StatusOr<std::uint32_t> id = CheckedU32(nodes_.size(), "node count");
  if (!id.ok()) {
    status_ = id.status();
    return kNilNode;
  }
  return *id;
}

NodeId SuffixTree::AddNode(NodeId parent, LabelRef label) {
  if (parent == kNilNode) {
    // Root creation: the constructor already made it.
    TSW_CHECK(nodes_.size() == 1 && occurrences_.empty());
    return 0;
  }
  TSW_CHECK(label.len > 0) << "non-root edges need a non-empty label";
  const NodeId id = NextNodeId();
  // A failed tree keeps accepting calls so producers can run to their
  // end; everything lands on the root and the caller discards the tree.
  if (id == kNilNode) return 0;
  TSW_CHECK(parent < nodes_.size());
  TSW_CHECK(label.offset + label.len <= text_->size())
      << "label [" << label.offset << ", +" << label.len
      << ") outside a text of " << text_->size() << " symbols";
  Node n;
  n.label_begin = static_cast<std::uint32_t>(label.offset);  // < text size.
  n.label_len = label.len;
  n.next_sibling = nodes_[parent].first_child;
  nodes_.push_back(n);
  nodes_[parent].first_child = id;
  return id;
}

void SuffixTree::AddOccurrence(NodeId node, const OccurrenceRec& occ) {
  if (!status_.ok()) return;
  TSW_CHECK(node < nodes_.size());
  const StatusOr<std::uint32_t> id =
      CheckedU32(occurrences_.size(), "occurrence count");
  if (!id.ok()) {
    status_ = id.status();
    return;
  }
  occurrences_.push_back({occ.seq, occ.pos, occ.run, nodes_[node].first_occ});
  nodes_[node].first_occ = *id;
}

void SuffixTree::Finalize() {
  TSW_CHECK(!finalized_);
  // Iterative post-order: push node twice; second visit folds children.
  std::vector<std::pair<NodeId, bool>> stack;
  stack.reserve(256);
  stack.push_back({0, false});
  while (!stack.empty()) {
    auto [n, processed] = stack.back();
    stack.pop_back();
    if (!processed) {
      stack.push_back({n, true});
      for (NodeId c = nodes_[n].first_child; c != kNilNode;
           c = nodes_[c].next_sibling) {
        stack.push_back({c, false});
      }
      continue;
    }
    std::uint32_t count = 0;
    Pos max_run = 0;
    for (std::uint32_t o = nodes_[n].first_occ; o != kNilOcc;
         o = occurrences_[o].next) {
      ++count;
      max_run = std::max(max_run, occurrences_[o].run);
    }
    for (NodeId c = nodes_[n].first_child; c != kNilNode;
         c = nodes_[c].next_sibling) {
      count += nodes_[c].subtree_occ;
      max_run = std::max(max_run, nodes_[c].max_run);
    }
    nodes_[n].subtree_occ = count;
    nodes_[n].max_run = max_run;
  }
  finalized_ = true;
}

SuffixTreeBuilder::SuffixTreeBuilder(const SymbolDatabase* db,
                                     BuildOptions options)
    : SuffixTreeBuilder(TextOf(db), options) {}

SuffixTreeBuilder::SuffixTreeBuilder(std::shared_ptr<const SymbolText> text,
                                     BuildOptions options)
    : text_(std::move(text)), options_(options) {
  TSW_CHECK(text_ != nullptr);
  // The tree shares the symbols of the text (aliasing the SymbolText).
  tree_.AdoptText(
      std::shared_ptr<const std::vector<Symbol>>(text_, &text_->symbols));
}

NodeId SuffixTreeBuilder::FindChild(NodeId parent, Symbol s) const {
  auto it = child_index_.find(ChildKey(parent, s));
  return it == child_index_.end() ? kNilNode : it->second;
}

void SuffixTreeBuilder::LinkChild(NodeId parent, Symbol s, NodeId child) {
  // Sibling chaining is done by SuffixTree::AddNode for new nodes; for
  // split nodes the chain is adjusted in place (see InsertSuffix).
  child_index_.emplace(ChildKey(parent, s), child);
}

void SuffixTreeBuilder::InsertSequence(SeqId id) {
  const std::span<const Symbol> s = text_->sequence(id);
  const auto n = static_cast<Pos>(s.size());
  Pos p = 0;
  while (p < n) {
    // One scan finds the run; all positions inside it share the symbol.
    Pos run = 1;
    while (p + run < n && s[p + run] == s[p]) ++run;
    for (Pos q = p; q < p + run; ++q) {
      const Pos suffix_len = n - q;
      if (options_.min_suffix_length != 0 &&
          suffix_len < options_.min_suffix_length) {
        ++skipped_suffixes_;
        continue;
      }
      if (options_.sparse && q != p) {
        ++skipped_suffixes_;
        continue;
      }
      InsertSuffix(id, q, run - (q - p));
    }
    p += run;
  }
}

void SuffixTreeBuilder::InsertSuffix(SeqId id, Pos start, Pos run) {
  const std::span<const Symbol> seq = text_->sequence(id);
  TSW_CHECK(start < seq.size());
  // The suffix is text[base, base + n).
  const std::uint64_t base = text_->begin[id] + start;
  std::size_t n = seq.size() - start;
  if (options_.max_suffix_length != 0 && n > options_.max_suffix_length) {
    n = options_.max_suffix_length;
  }
  ++stored_suffixes_;
  if (!tree_.status().ok()) return;  // Spent: the tree is discarded.
  const OccurrenceRec occ{id, start, run};
  auto& nodes = tree_.nodes_;
  const Symbol* text = text_->symbols.data();
  const Symbol* sfx = text + base;

  NodeId cur = 0;
  std::size_t i = 0;
  while (true) {
    if (i == n) {
      tree_.AddOccurrence(cur, occ);
      return;
    }
    const NodeId child = FindChild(cur, sfx[i]);
    if (child == kNilNode) {
      const NodeId leaf = tree_.AddNode(
          cur, {base + i, static_cast<std::uint32_t>(n - i)});
      LinkChild(cur, sfx[i], leaf);
      tree_.AddOccurrence(leaf, occ);
      return;
    }
    const std::uint32_t lb = nodes[child].label_begin;
    const std::uint32_t ll = nodes[child].label_len;
    std::uint32_t j = 1;
    while (j < ll && i + j < n && text[lb + j] == sfx[i + j]) ++j;
    if (j == ll) {
      cur = child;
      i += j;
      continue;
    }
    // Split the edge above `child` at offset j. `child` keeps its identity
    // (slot in the parent's sibling chain and its child-index key) and
    // becomes the upper split node; a fresh node takes over the deep part.
    const NodeId deep = tree_.NextNodeId();
    if (deep == kNilNode) return;
    SuffixTree::Node deep_node;
    deep_node.label_begin = lb + j;
    deep_node.label_len = ll - j;
    deep_node.first_child = nodes[child].first_child;
    deep_node.first_occ = nodes[child].first_occ;
    deep_node.next_sibling = kNilNode;
    nodes.push_back(deep_node);
    // Re-key the grandchildren from `child` to `deep`.
    for (NodeId gc = deep_node.first_child; gc != kNilNode;
         gc = nodes[gc].next_sibling) {
      const Symbol gs = text[nodes[gc].label_begin];
      child_index_.erase(ChildKey(child, gs));
      child_index_.emplace(ChildKey(deep, gs), gc);
    }
    nodes[child].label_len = j;
    nodes[child].first_child = deep;
    nodes[child].first_occ = SuffixTree::kNilOcc;
    child_index_.emplace(ChildKey(child, text[lb + j]), deep);

    if (i + j == n) {
      tree_.AddOccurrence(child, occ);
      return;
    }
    const NodeId leaf = tree_.AddNode(
        child, {base + i + j, static_cast<std::uint32_t>(n - i - j)});
    LinkChild(child, sfx[i + j], leaf);
    tree_.AddOccurrence(leaf, occ);
    return;
  }
}

SuffixTree SuffixTreeBuilder::Build() {
  child_index_.clear();
  tree_.Finalize();
  return std::move(tree_);
}

SuffixTree BuildSuffixTree(const SymbolDatabase& db, BuildOptions options) {
  SuffixTreeBuilder builder(&db, options);
  for (SeqId id = 0; id < db.size(); ++id) builder.InsertSequence(id);
  return builder.Build();
}

}  // namespace tswarp::suffixtree
