#include "suffixtree/suffix_tree.h"

#include <algorithm>

#include "common/logging.h"

namespace tswarp::suffixtree {
namespace {

using internal::NodeRecord;

/// A childless node without occurrences, labelled text[offset, +len).
NodeRecord Leaf(std::uint32_t offset, std::uint32_t len) {
  return {offset, len, kNilNode, kNilNode, internal::kNilOcc, 0, 0};
}

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
  nodes_.push_back(Leaf(0, 0));  // Root: id 0, empty label.
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
  TSW_CHECK(!finalized_) << "nodes are added before Finalize";
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
  NodeRecord n = Leaf(static_cast<std::uint32_t>(label.offset),  // < text.
                      label.len);
  n.next_sibling = nodes_[parent].first_child;
  nodes_.push_back(n);
  nodes_[parent].first_child = id;
  return id;
}

void SuffixTree::AddOccurrence(NodeId node, const OccurrenceRec& occ) {
  TSW_CHECK(!finalized_) << "occurrences are added before Finalize";
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
    for (std::uint32_t o = nodes_[n].first_occ; o != internal::kNilOcc;
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
  std::uint64_t label_symbols = 0;
  for (const NodeRecord& n : nodes_) label_symbols += n.label_len;
  // The vectors never change again, so the spans stay valid, moves of
  // the tree included (a moved vector keeps its buffer).
  SetRecords(nodes_, occurrences_, *text_, label_symbols);
  finalized_ = true;
}

SuffixTreeBuilder::SuffixTreeBuilder(const SymbolDatabase* db,
                                     BuildOptions options)
    : SuffixTreeBuilder(TextOf(db), options) {}

SuffixTreeBuilder::SuffixTreeBuilder(std::shared_ptr<const SymbolText> text,
                                     BuildOptions options)
    : text_(std::move(text)), options_(options), child_count_(1, 0) {
  TSW_CHECK(text_ != nullptr);
  // The tree shares the symbols of the text (aliasing the SymbolText).
  tree_.AdoptText(
      std::shared_ptr<const std::vector<Symbol>>(text_, &text_->symbols));
}

NodeId SuffixTreeBuilder::FindChild(NodeId parent, Symbol s) const {
  if (child_count_[parent] >= kWideFanout) {
    auto it = wide_index_.find(ChildKey(parent, s));
    return it == wide_index_.end() ? kNilNode : it->second;
  }
  const auto& nodes = tree_.nodes_;
  const Symbol* text = text_->symbols.data();
  for (NodeId c = nodes[parent].first_child; c != kNilNode;
       c = nodes[c].next_sibling) {
    if (text[nodes[c].label_offset] == s) return c;
  }
  return kNilNode;
}

void SuffixTreeBuilder::LinkChild(NodeId parent, Symbol s, NodeId child) {
  // Sibling chaining is done by SuffixTree::AddNode for new nodes; for
  // split nodes the chain is adjusted in place (see InsertSuffix).
  std::uint8_t& count = child_count_[parent];
  if (count == kWideFanout) {
    wide_index_.emplace(ChildKey(parent, s), child);
    return;
  }
  if (++count < kWideFanout) return;
  const auto& nodes = tree_.nodes_;
  const Symbol* text = text_->symbols.data();
  for (NodeId c = nodes[parent].first_child; c != kNilNode;
       c = nodes[c].next_sibling) {
    wide_index_.emplace(ChildKey(parent, text[nodes[c].label_offset]), c);
  }
}

void SuffixTreeBuilder::AddLeaf(NodeId parent, std::uint64_t offset,
                                std::size_t len, const OccurrenceRec& occ) {
  const NodeId leaf =
      tree_.AddNode(parent, {offset, static_cast<std::uint32_t>(len)});
  if (!tree_.status().ok()) return;  // Out of ids: the tree is discarded.
  child_count_.push_back(0);
  LinkChild(parent, text_->symbols[offset], leaf);
  tree_.AddOccurrence(leaf, occ);
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
      AddLeaf(cur, base + i, n - i, occ);
      return;
    }
    const std::uint32_t lb = nodes[child].label_offset;
    const std::uint32_t ll = nodes[child].label_len;
    std::uint32_t j = 1;
    while (j < ll && i + j < n && text[lb + j] == sfx[i + j]) ++j;
    if (j == ll) {
      cur = child;
      i += j;
      continue;
    }
    // Split the edge above `child` at offset j. `child` keeps its identity
    // (slot in the parent's sibling chain and its index entry) and becomes
    // the upper split node; a fresh node takes over the deep part, with
    // child's children and their count.
    const NodeId deep = tree_.NextNodeId();
    if (deep == kNilNode) return;
    NodeRecord deep_node = Leaf(lb + j, ll - j);
    deep_node.first_child = nodes[child].first_child;
    deep_node.first_occ = nodes[child].first_occ;
    nodes.push_back(deep_node);
    const std::uint8_t fanout = child_count_[child];
    child_count_.push_back(fanout);
    if (fanout == kWideFanout) {
      // Re-key the grandchildren from `child` to `deep`.
      for (NodeId gc = deep_node.first_child; gc != kNilNode;
           gc = nodes[gc].next_sibling) {
        auto entry =
            wide_index_.extract(ChildKey(child, text[nodes[gc].label_offset]));
        entry.key() = ChildKey(deep, text[nodes[gc].label_offset]);
        wide_index_.insert(std::move(entry));
      }
    }
    nodes[child].label_len = j;
    nodes[child].first_child = deep;
    nodes[child].first_occ = internal::kNilOcc;
    child_count_[child] = 0;
    LinkChild(child, text[lb + j], deep);

    if (i + j == n) {
      tree_.AddOccurrence(child, occ);
      return;
    }
    AddLeaf(child, base + i + j, n - i - j, occ);
    return;
  }
}

SuffixTree SuffixTreeBuilder::Build() {
  child_count_ = {};
  wide_index_ = {};
  tree_.Finalize();
  return std::move(tree_);
}

SuffixTree BuildSuffixTree(const SymbolDatabase& db, BuildOptions options) {
  SuffixTreeBuilder builder(&db, options);
  for (SeqId id = 0; id < db.size(); ++id) builder.InsertSequence(id);
  return builder.Build();
}

}  // namespace tswarp::suffixtree
