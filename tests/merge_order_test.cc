// Merge-order invariance: the Bieganski construction may combine partial
// trees in any order (the paper's "series of binary merges of suffix
// trees of increasing size"); every schedule must converge to the same
// canonical tree. Also checks structural size bounds.

#include <algorithm>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "suffixtree/merge.h"
#include "suffixtree/suffix_tree.h"
#include "suffixtree/symbol_database.h"

namespace tswarp::suffixtree {
namespace {

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

SymbolDatabase RandomDb(std::uint64_t seed) {
  Rng rng(seed);
  SymbolDatabase db;
  const int n = static_cast<int>(rng.UniformInt(4, 9));
  for (int i = 0; i < n; ++i) {
    const auto len = static_cast<std::size_t>(rng.UniformInt(2, 25));
    SymbolSequence s;
    for (std::size_t p = 0; p < len; ++p) {
      s.push_back(static_cast<Symbol>(rng.UniformInt(0, 3)));
    }
    db.Add(std::move(s));
  }
  return db;
}

SuffixTree SingleTree(const SymbolDatabase& db, SeqId id) {
  SuffixTreeBuilder builder(&db);
  builder.InsertSequence(id);
  return builder.Build();
}

TEST(MergeOrderTest, RandomSchedulesConverge) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const SymbolDatabase db = RandomDb(seed);
    const Canon expected = Canonicalize(BuildSuffixTree(db));

    Rng rng(100 + seed);
    for (int schedule = 0; schedule < 4; ++schedule) {
      // Random binary-merge schedule over per-sequence trees.
      std::vector<SuffixTree> forest;
      for (SeqId id = 0; id < db.size(); ++id) {
        forest.push_back(SingleTree(db, id));
      }
      while (forest.size() > 1) {
        const auto i = static_cast<std::size_t>(rng.UniformInt(
            0, static_cast<std::int64_t>(forest.size()) - 1));
        std::swap(forest[i], forest.back());
        SuffixTree a = std::move(forest.back());
        forest.pop_back();
        const auto j = static_cast<std::size_t>(rng.UniformInt(
            0, static_cast<std::int64_t>(forest.size()) - 1));
        std::swap(forest[j], forest.back());
        SuffixTree b = std::move(forest.back());
        forest.pop_back();
        SuffixTree merged;
        MergeTrees(a, b, &merged);
        forest.push_back(std::move(merged));
      }
      ASSERT_EQ(Canonicalize(forest.front()), expected)
          << "seed " << seed << " schedule " << schedule;
    }
  }
}

TEST(MergeOrderTest, NodeCountBounds) {
  // A generalized suffix tree over k stored suffixes has at most 2k
  // proper nodes besides the root (each leaf adds one node, each split
  // one more), and at least one node per distinct suffix path.
  for (std::uint64_t seed = 20; seed <= 30; ++seed) {
    const SymbolDatabase db = RandomDb(seed);
    const SuffixTree tree = BuildSuffixTree(db);
    const std::uint64_t k = tree.NumOccurrences();
    EXPECT_LE(tree.NumNodes(), 2 * k + 1) << "seed " << seed;
    EXPECT_GE(tree.NumNodes(), 2u);
    // Label pool never exceeds the total suffix mass.
    std::uint64_t total_mass = 0;
    for (SeqId id = 0; id < db.size(); ++id) {
      const std::size_t len = db.sequence(id).size();
      total_mass += len * (len + 1) / 2;
    }
    EXPECT_LE(tree.NumLabelSymbols(), total_mass);
  }
}

}  // namespace
}  // namespace tswarp::suffixtree
