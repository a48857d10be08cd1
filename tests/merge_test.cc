#include "suffixtree/merge.h"

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "suffixtree/suffix_tree.h"
#include "suffixtree/symbol_database.h"

namespace tswarp::suffixtree {
namespace {

/// Canonical form of a tree: sorted (path-label, occurrence) pairs. Two
/// suffix trees over the same suffix set are equal iff their canonical
/// forms match (node layout may differ in child order only).
using Canon =
    std::vector<std::pair<std::vector<Symbol>, std::tuple<SeqId, Pos, Pos>>>;

Canon Canonicalize(const TreeView& view) {
  Canon out;
  struct Frame {
    NodeId node;
    std::vector<Symbol> path;
  };
  std::vector<Frame> stack = {{view.Root(), {}}};
  while (!stack.empty()) {
    Frame f = std::move(stack.back());
    stack.pop_back();
    std::vector<OccurrenceRec> occs;
    view.GetOccurrences(f.node, &occs);
    for (const OccurrenceRec& o : occs) {
      out.emplace_back(f.path, std::make_tuple(o.seq, o.pos, o.run));
    }
    Children children;
    view.GetChildren(f.node, &children);
    for (const Children::Edge& e : children.edges) {
      Frame next{e.child, f.path};
      const std::span<const Symbol> label = children.Label(e);
      next.path.insert(next.path.end(), label.begin(), label.end());
      stack.push_back(std::move(next));
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

SymbolDatabase RandomSymbolDb(std::uint64_t seed, std::size_t num_seqs,
                              std::size_t max_len, Symbol alphabet) {
  Rng rng(seed);
  SymbolDatabase db;
  for (std::size_t i = 0; i < num_seqs; ++i) {
    const auto len = static_cast<std::size_t>(
        rng.UniformInt(1, static_cast<int>(max_len)));
    SymbolSequence s;
    for (std::size_t p = 0; p < len; ++p) {
      s.push_back(static_cast<Symbol>(rng.UniformInt(0, alphabet - 1)));
    }
    db.Add(std::move(s));
  }
  return db;
}

/// Builds a tree over sequences [begin, end) of `db`.
SuffixTree BuildRange(const SymbolDatabase& db, SeqId begin, SeqId end,
                      BuildOptions options = {}) {
  SuffixTreeBuilder builder(&db, options);
  for (SeqId id = begin; id < end; ++id) builder.InsertSequence(id);
  return builder.Build();
}

TEST(MergeTest, MergeOfPartitionsEqualsDirectBuild) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const SymbolDatabase db = RandomSymbolDb(seed, 8, 25, 3);
    const SuffixTree whole = BuildRange(db, 0, 8);
    const SuffixTree left = BuildRange(db, 0, 4);
    const SuffixTree right = BuildRange(db, 4, 8);
    SuffixTree merged;
    MergeTrees(left, right, &merged);
    EXPECT_EQ(Canonicalize(merged), Canonicalize(whole)) << "seed " << seed;
    // The merged tree must be minimal: same node count as direct build.
    EXPECT_EQ(merged.NumNodes(), whole.NumNodes()) << "seed " << seed;
    EXPECT_EQ(merged.NumOccurrences(), whole.NumOccurrences());
  }
}

TEST(MergeTest, SparseTreesMergeCorrectly) {
  BuildOptions options;
  options.sparse = true;
  for (std::uint64_t seed = 20; seed <= 26; ++seed) {
    const SymbolDatabase db = RandomSymbolDb(seed, 6, 30, 2);
    const SuffixTree whole = BuildRange(db, 0, 6, options);
    const SuffixTree left = BuildRange(db, 0, 3, options);
    const SuffixTree right = BuildRange(db, 3, 6, options);
    SuffixTree merged;
    MergeTrees(left, right, &merged);
    EXPECT_EQ(Canonicalize(merged), Canonicalize(whole)) << "seed " << seed;
  }
}

TEST(MergeTest, MergeWithSingleSequenceTree) {
  const SymbolDatabase db = RandomSymbolDb(5, 2, 20, 3);
  const SuffixTree whole = BuildRange(db, 0, 2);
  const SuffixTree a = BuildRange(db, 0, 1);
  const SuffixTree b = BuildRange(db, 1, 2);
  SuffixTree merged;
  MergeTrees(a, b, &merged);
  EXPECT_EQ(Canonicalize(merged), Canonicalize(whole));
}

TEST(MergeTest, MergeIsCommutativeUpToCanonicalForm) {
  const SymbolDatabase db = RandomSymbolDb(9, 6, 20, 3);
  const SuffixTree a = BuildRange(db, 0, 3);
  const SuffixTree b = BuildRange(db, 3, 6);
  SuffixTree ab, ba;
  MergeTrees(a, b, &ab);
  MergeTrees(b, a, &ba);
  EXPECT_EQ(Canonicalize(ab), Canonicalize(ba));
}

TEST(MergeTest, CascadedBinaryMerges) {
  // The paper's construction: a series of binary merges of trees of
  // increasing size.
  const SymbolDatabase db = RandomSymbolDb(11, 8, 15, 3);
  const SuffixTree whole = BuildRange(db, 0, 8);
  std::vector<SuffixTree> trees;
  for (SeqId id = 0; id < 8; ++id) {
    trees.push_back(BuildRange(db, id, id + 1));
  }
  std::size_t head = 0;
  while (trees.size() - head > 1) {
    SuffixTree merged;
    MergeTrees(trees[head], trees[head + 1], &merged);
    head += 2;
    trees.push_back(std::move(merged));
  }
  EXPECT_EQ(Canonicalize(trees[head]), Canonicalize(whole));
  EXPECT_EQ(trees[head].NumNodes(), whole.NumNodes());
}

TEST(CopyTreeTest, CopyIsIdentityOnCanonicalForm) {
  const SymbolDatabase db = RandomSymbolDb(13, 6, 25, 4);
  const SuffixTree tree = BuildRange(db, 0, 6);
  SuffixTree copy;
  CopyTree(tree, &copy);
  EXPECT_EQ(Canonicalize(copy), Canonicalize(tree));
  EXPECT_EQ(copy.NumNodes(), tree.NumNodes());
  EXPECT_EQ(copy.NumOccurrences(), tree.NumOccurrences());
  EXPECT_EQ(copy.NumLabelSymbols(), tree.NumLabelSymbols());
}

TEST(MergeTest, SharedTextStaysShared) {
  // Trees built over one text (disk construction's batch trees) merge into
  // a tree over that same text: no label or text symbol is copied.
  const SymbolDatabase db = RandomSymbolDb(15, 6, 20, 3);
  const auto text = std::make_shared<const SymbolText>(db);
  SuffixTreeBuilder left(text);
  SuffixTreeBuilder right(text);
  for (SeqId id = 0; id < 3; ++id) left.InsertSequence(id);
  for (SeqId id = 3; id < 6; ++id) right.InsertSequence(id);
  const SuffixTree a = left.Build();
  const SuffixTree b = right.Build();
  SuffixTree merged;
  MergeTrees(a, b, &merged, nullptr, MergeText::kShared);
  EXPECT_EQ(merged.NumLabelSymbols(), db.TotalSymbols());
  EXPECT_TRUE(std::ranges::equal(merged.Text(), text->symbols));
  EXPECT_EQ(Canonicalize(merged), Canonicalize(BuildRange(db, 0, 6)));
}

TEST(MergeTest, DistinctTextsConcatenate) {
  // Tier compaction: the merged text is a's followed by b's, and b's
  // label references are shifted past a's text.
  SymbolDatabase da;
  da.Add({0, 1, 2, 1});
  SymbolDatabase db;
  db.Add({1, 2, 1, 0});
  const SuffixTree a = BuildRange(da, 0, 1);
  const SuffixTree b = BuildRange(db, 0, 1);
  SuffixTree merged;
  MergeTrees(a, b, &merged);
  const std::vector<Symbol> joined = {0, 1, 2, 1, 1, 2, 1, 0};
  EXPECT_TRUE(std::ranges::equal(merged.Text(), joined));
  // The canonical form differs from a direct build only in b's sequence
  // ids (both trees call their sequence 0).
  SymbolDatabase both;
  both.Add({0, 1, 2, 1});
  both.Add({1, 2, 1, 0});
  Canon expected = Canonicalize(BuildRange(both, 0, 2));
  for (auto& [path, occ] : expected) std::get<0>(occ) = 0;
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(Canonicalize(merged), expected);
}

TEST(MergeTest, DisjointAlphabetsConcatenateUnderRoot) {
  SymbolDatabase db;
  db.Add({0, 1, 0});
  db.Add({5, 6, 5});
  const SuffixTree whole = BuildRange(db, 0, 2);
  const SuffixTree a = BuildRange(db, 0, 1);
  const SuffixTree b = BuildRange(db, 1, 2);
  SuffixTree merged;
  MergeTrees(a, b, &merged);
  EXPECT_EQ(Canonicalize(merged), Canonicalize(whole));
  // No shared paths: merged size is the sum of parts (minus one root).
  EXPECT_EQ(merged.NumNodes(), a.NumNodes() + b.NumNodes() - 1);
}

}  // namespace
}  // namespace tswarp::suffixtree
