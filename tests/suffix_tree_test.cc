#include "suffixtree/suffix_tree.h"

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "suffixtree/symbol_database.h"
#include "suffixtree/tree_view.h"

namespace tswarp::suffixtree {
namespace {

/// Recursively collects (path-label, occurrence) pairs and checks
/// structural invariants of a well-formed generalized suffix tree.
struct TreeChecker {
  const TreeView& view;
  std::multimap<std::vector<Symbol>, OccurrenceRec> found;
  std::uint64_t nodes = 0;

  explicit TreeChecker(const TreeView& v) : view(v) {}

  void Walk(NodeId node, const std::vector<Symbol>& path, bool is_root) {
    ++nodes;
    std::vector<OccurrenceRec> occs;
    view.GetOccurrences(node, &occs);
    for (const OccurrenceRec& occ : occs) found.emplace(path, occ);

    Children children;
    view.GetChildren(node, &children);
    // Children must have pairwise-distinct first symbols.
    std::set<Symbol> firsts;
    for (const Children::Edge& e : children.edges) {
      EXPECT_GE(e.label_len, 1u);
      EXPECT_TRUE(firsts.insert(children.FirstSymbol(e)).second)
          << "duplicate first symbol under one node";
    }
    // Non-root nodes need >= 2 children or an occurrence (path
    // compression: unary label-only nodes are not allowed).
    if (!is_root) {
      EXPECT_TRUE(children.edges.size() >= 2 || !occs.empty())
          << "unary node without occurrences";
    }
    // Subtree occurrence count must match.
    std::uint32_t child_total = static_cast<std::uint32_t>(occs.size());
    Pos max_run = 0;
    for (const OccurrenceRec& o : occs) max_run = std::max(max_run, o.run);
    for (const Children::Edge& e : children.edges) {
      child_total += view.SubtreeOccCount(e.child);
      max_run = std::max(max_run, view.MaxRun(e.child));
    }
    EXPECT_EQ(view.SubtreeOccCount(node), child_total);
    EXPECT_EQ(view.MaxRun(node), max_run);

    for (const Children::Edge& e : children.edges) {
      std::vector<Symbol> next = path;
      const std::span<const Symbol> label = children.Label(e);
      next.insert(next.end(), label.begin(), label.end());
      Walk(e.child, next, /*is_root=*/false);
    }
  }
};

/// Verifies the tree stores exactly the expected suffixes of `db`.
void CheckTreeAgainstDb(const TreeView& view, const SymbolDatabase& db,
                        bool sparse, Pos max_suffix_length = 0,
                        Pos min_suffix_length = 0) {
  TreeChecker checker(view);
  checker.Walk(view.Root(), {}, /*is_root=*/true);

  std::size_t expected_count = 0;
  for (SeqId id = 0; id < db.size(); ++id) {
    const SymbolSequence& s = db.sequence(id);
    for (Pos p = 0; p < s.size(); ++p) {
      if (sparse && !db.IsRunStart(id, p)) continue;
      if (min_suffix_length != 0 && s.size() - p < min_suffix_length) {
        continue;
      }
      ++expected_count;
      std::vector<Symbol> suffix(s.begin() + p, s.end());
      if (max_suffix_length != 0 && suffix.size() > max_suffix_length) {
        suffix.resize(max_suffix_length);
      }
      // Exactly one stored occurrence must sit at this suffix's path.
      auto [lo, hi] = checker.found.equal_range(suffix);
      bool present = false;
      for (auto it = lo; it != hi; ++it) {
        if (it->second.seq == id && it->second.pos == p) {
          EXPECT_EQ(it->second.run, db.RunLength(id, p));
          present = true;
        }
      }
      EXPECT_TRUE(present) << "missing suffix (" << id << ", " << p << ")";
    }
  }
  EXPECT_EQ(checker.found.size(), expected_count);
  EXPECT_EQ(view.NumOccurrences(), expected_count);
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

TEST(SuffixTreeTest, SingleSequenceStoresAllSuffixes) {
  SymbolDatabase db;
  db.Add({0, 1, 0, 1, 2});
  const SuffixTree tree = BuildSuffixTree(db);
  CheckTreeAgainstDb(tree, db, /*sparse=*/false);
}

TEST(SuffixTreeTest, RepeatedSymbolSequence) {
  SymbolDatabase db;
  db.Add({3, 3, 3, 3, 3, 3});
  const SuffixTree tree = BuildSuffixTree(db);
  CheckTreeAgainstDb(tree, db, /*sparse=*/false);
  // All suffixes lie on a single chain of nodes.
  EXPECT_EQ(tree.NumOccurrences(), 6u);
}

TEST(SuffixTreeTest, IdenticalSequencesShareAllPaths) {
  SymbolDatabase db;
  db.Add({1, 2, 3, 4});
  db.Add({1, 2, 3, 4});
  const SuffixTree tree = BuildSuffixTree(db);
  CheckTreeAgainstDb(tree, db, /*sparse=*/false);
  // The second copy adds occurrences, not edge labels (the text, which
  // holds both copies, is the only label storage that grows).
  SymbolDatabase single;
  single.Add({1, 2, 3, 4});
  const SuffixTree tree1 = BuildSuffixTree(single);
  EXPECT_EQ(tree.MaterializedLabelSymbols(), tree1.MaterializedLabelSymbols());
  EXPECT_EQ(tree.NumNodes(), tree1.NumNodes());
  EXPECT_EQ(tree.NumOccurrences(), 2 * tree1.NumOccurrences());
}

TEST(SuffixTreeTest, RandomDatabasesAreWellFormed) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const SymbolDatabase db = RandomSymbolDb(seed, 6, 25, 4);
    const SuffixTree tree = BuildSuffixTree(db);
    CheckTreeAgainstDb(tree, db, /*sparse=*/false);
  }
}

TEST(SuffixTreeTest, BinaryAlphabetStress) {
  // Tiny alphabet maximizes shared prefixes and edge splits.
  for (std::uint64_t seed = 50; seed < 56; ++seed) {
    const SymbolDatabase db = RandomSymbolDb(seed, 5, 40, 2);
    const SuffixTree tree = BuildSuffixTree(db);
    CheckTreeAgainstDb(tree, db, /*sparse=*/false);
  }
}

TEST(SparseSuffixTreeTest, StoresOnlyRunStarts) {
  SymbolDatabase db;
  // CS_8 of the paper: <C1,C1,C1,C3,C2,C2> -> stored suffixes 1, 4, 5
  // (1-based), i.e. positions 0, 3, 4.
  db.Add({1, 1, 1, 3, 2, 2});
  BuildOptions options;
  options.sparse = true;
  const SuffixTree tree = BuildSuffixTree(db, options);
  EXPECT_EQ(tree.NumOccurrences(), 3u);
  CheckTreeAgainstDb(tree, db, /*sparse=*/true);
}

TEST(SparseSuffixTreeTest, RunLengthsRecorded) {
  SymbolDatabase db;
  db.Add({7, 7, 7, 7, 1, 7, 7});
  EXPECT_EQ(db.RunLength(0, 0), 4u);
  EXPECT_EQ(db.RunLength(0, 2), 2u);
  EXPECT_EQ(db.RunLength(0, 4), 1u);
  EXPECT_EQ(db.RunLength(0, 5), 2u);
  EXPECT_TRUE(db.IsRunStart(0, 0));
  EXPECT_FALSE(db.IsRunStart(0, 1));
  EXPECT_TRUE(db.IsRunStart(0, 4));
  EXPECT_TRUE(db.IsRunStart(0, 5));
  EXPECT_FALSE(db.IsRunStart(0, 6));

  BuildOptions options;
  options.sparse = true;
  const SuffixTree tree = BuildSuffixTree(db, options);
  CheckTreeAgainstDb(tree, db, /*sparse=*/true);
  // MaxRun at the root covers the longest run.
  EXPECT_EQ(tree.MaxRun(tree.Root()), 4u);
}

TEST(SparseSuffixTreeTest, RandomSparseTreesAreWellFormed) {
  for (std::uint64_t seed = 100; seed < 110; ++seed) {
    const SymbolDatabase db = RandomSymbolDb(seed, 6, 30, 3);
    BuildOptions options;
    options.sparse = true;
    const SuffixTree tree = BuildSuffixTree(db, options);
    CheckTreeAgainstDb(tree, db, /*sparse=*/true);
  }
}

TEST(SuffixTreeBuilderTest, CompactionAccounting) {
  SymbolDatabase db;
  db.Add({1, 1, 1, 1, 2, 2});  // 6 suffixes, run starts at 0 and 4.
  BuildOptions options;
  options.sparse = true;
  SuffixTreeBuilder builder(&db, options);
  builder.InsertSequence(0);
  EXPECT_EQ(builder.stored_suffixes(), 2u);
  EXPECT_EQ(builder.skipped_suffixes(), 4u);
}

TEST(SuffixTreeBuilderTest, LengthBounds) {
  SymbolDatabase db;
  db.Add({1, 2, 3, 4, 5, 6});
  BuildOptions options;
  options.min_suffix_length = 3;   // Suffixes of length 1-2 skipped.
  options.max_suffix_length = 4;   // Longer suffixes truncated to 4.
  const SuffixTree tree = BuildSuffixTree(db, options);
  EXPECT_EQ(tree.NumOccurrences(), 4u);  // Starts 0..3.
  CheckTreeAgainstDb(tree, db, /*sparse=*/false, /*max_suffix_length=*/4,
                     /*min_suffix_length=*/3);
}

TEST(SuffixTreeTest, SizeBytesTracksComponents) {
  SymbolDatabase db;
  db.Add({0, 1, 2, 0, 1});
  const SuffixTree tree = BuildSuffixTree(db);
  EXPECT_EQ(tree.SizeBytes(), 64 + tree.NumNodes() * 32 +
                                  tree.NumOccurrences() * 16 +
                                  tree.NumLabelSymbols() * sizeof(Symbol));
}

TEST(SuffixTreeTest, TextIsTheConcatenatedSequences) {
  SymbolDatabase db;
  db.Add({0, 1, 2, 0, 1});
  db.Add({2, 2, 1});
  const SuffixTree tree = BuildSuffixTree(db);
  const std::vector<Symbol> expected = {0, 1, 2, 0, 1, 2, 2, 1};
  EXPECT_TRUE(std::ranges::equal(tree.Text(), expected));
  EXPECT_EQ(tree.NumLabelSymbols(), db.TotalSymbols());
  // Labels are spans of the text itself, not copies.
  Children children;
  tree.GetChildren(tree.Root(), &children);
  for (const Children::Edge& e : children.edges) {
    EXPECT_EQ(children.Label(e).data(), tree.Text().data() + e.label_offset);
  }
}

TEST(SuffixTreeTest, TreeOutlivesItsDatabase) {
  std::optional<SuffixTree> tree;
  SymbolDatabase copy;
  {
    SymbolDatabase db = RandomSymbolDb(17, 5, 20, 3);
    for (SeqId id = 0; id < db.size(); ++id) copy.Add(db.sequence(id));
    SuffixTreeBuilder builder(&db);
    for (SeqId id = 0; id < db.size(); ++id) builder.InsertSequence(id);
    tree = builder.Build();
  }  // The builder's database is gone; the tree owns its text.
  ASSERT_TRUE(tree->status().ok());
  CheckTreeAgainstDb(*tree, copy, /*sparse=*/false);
}

TEST(SuffixTreeTest, CollectSubtreeOccurrencesFindsAll) {
  const SymbolDatabase db = RandomSymbolDb(7, 4, 15, 3);
  const SuffixTree tree = BuildSuffixTree(db);
  std::vector<OccurrenceRec> all;
  tree.CollectSubtreeOccurrences(tree.Root(), &all);
  EXPECT_EQ(all.size(), tree.NumOccurrences());
}

}  // namespace
}  // namespace tswarp::suffixtree
