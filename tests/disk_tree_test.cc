#include "suffixtree/disk_tree.h"

#include <filesystem>
#include <algorithm>
#include <utility>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/index.h"
#include "core/seq_scan.h"
#include "datagen/generators.h"
#include "suffixtree/merge.h"
#include "suffixtree/suffix_tree.h"
#include "test_util.h"

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

class DiskTreeTest : public testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("tswarp_disk_tree_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Path(const std::string& name) { return (dir_ / name).string(); }

  std::filesystem::path dir_;
};

SymbolDatabase RandomSymbolDb(std::uint64_t seed, std::size_t num_seqs,
                              std::size_t max_len, Symbol alphabet) {
  Rng rng(seed);
  SymbolDatabase db;
  for (std::size_t i = 0; i < num_seqs; ++i) {
    const auto len = static_cast<std::size_t>(
        rng.UniformInt(2, static_cast<int>(max_len)));
    SymbolSequence s;
    for (std::size_t p = 0; p < len; ++p) {
      s.push_back(static_cast<Symbol>(rng.UniformInt(0, alphabet - 1)));
    }
    db.Add(std::move(s));
  }
  return db;
}

TEST_F(DiskTreeTest, WriteAndReopenPreservesStructure) {
  const SymbolDatabase db = RandomSymbolDb(1, 8, 25, 3);
  const SuffixTree memory_tree = BuildSuffixTree(db);
  ASSERT_TRUE(WriteTreeToDisk(memory_tree, Path("t1")).ok());
  auto disk = DiskSuffixTree::Open(Path("t1"));
  ASSERT_TRUE(disk.ok()) << disk.status();
  EXPECT_EQ(Canonicalize(**disk), Canonicalize(memory_tree));
  EXPECT_EQ((*disk)->NumNodes(), memory_tree.NumNodes());
  EXPECT_EQ((*disk)->NumOccurrences(), memory_tree.NumOccurrences());
  EXPECT_EQ((*disk)->NumLabelSymbols(), memory_tree.NumLabelSymbols());
}

TEST_F(DiskTreeTest, SubtreeStatsSurviveSerialization) {
  const SymbolDatabase db = RandomSymbolDb(2, 5, 20, 2);
  BuildOptions options;
  options.sparse = true;
  const SuffixTree memory_tree = BuildSuffixTree(db, options);
  ASSERT_TRUE(WriteTreeToDisk(memory_tree, Path("t2")).ok());
  auto disk = DiskSuffixTree::Open(Path("t2"));
  ASSERT_TRUE(disk.ok());
  // Spot-check stats across the whole tree.
  struct Frame {
    NodeId mem;
    NodeId dsk;
  };
  // Canonical equality already ensures matching structure; compare root
  // aggregates.
  EXPECT_EQ((*disk)->SubtreeOccCount((*disk)->Root()),
            memory_tree.SubtreeOccCount(memory_tree.Root()));
  EXPECT_EQ((*disk)->MaxRun((*disk)->Root()),
            memory_tree.MaxRun(memory_tree.Root()));
}

TEST_F(DiskTreeTest, OpenMissingBundleFails) {
  auto disk = DiskSuffixTree::Open(Path("nothing"));
  EXPECT_FALSE(disk.ok());
}

TEST_F(DiskTreeTest, TinyPoolStillCorrect) {
  // A 1-page-per-region pool forces constant eviction during both write
  // and traversal.
  const SymbolDatabase db = RandomSymbolDb(3, 6, 30, 3);
  const SuffixTree memory_tree = BuildSuffixTree(db);
  DiskTreeOptions options;
  options.pool_pages = 1;
  ASSERT_TRUE(WriteTreeToDisk(memory_tree, Path("t3"), options).ok());
  auto disk = DiskSuffixTree::Open(Path("t3"), options);
  ASSERT_TRUE(disk.ok());
  EXPECT_EQ(Canonicalize(**disk), Canonicalize(memory_tree));
  EXPECT_GT((*disk)->PoolStats().Total().misses, 0u);
}

TEST_F(DiskTreeTest, PoolOptionsDoNotChangeStructure) {
  // Any (shards, eviction, readahead) combination must read back the
  // identical tree.
  const SymbolDatabase db = RandomSymbolDb(4, 8, 25, 3);
  const SuffixTree memory_tree = BuildSuffixTree(db);
  ASSERT_TRUE(WriteTreeToDisk(memory_tree, Path("t4")).ok());
  const Canon expected = Canonicalize(memory_tree);
  for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
    for (const auto eviction : {storage::EvictionPolicyKind::kLru,
                                storage::EvictionPolicyKind::kClock}) {
      DiskTreeOptions options;
      options.pool_pages = 2;
      options.pool_shards = shards;
      options.eviction = eviction;
      options.readahead_pages = 2;
      auto disk = DiskSuffixTree::Open(Path("t4"), options);
      ASSERT_TRUE(disk.ok()) << disk.status();
      EXPECT_EQ((*disk)->pool_eviction(), eviction);
      EXPECT_EQ(Canonicalize(**disk), expected)
          << shards << " shards, "
          << storage::EvictionPolicyKindToString(eviction);
    }
  }
}

TEST_F(DiskTreeTest, WriterCloseIsIdempotent) {
  const SymbolDatabase db = RandomSymbolDb(5, 4, 15, 3);
  const SuffixTree memory_tree = BuildSuffixTree(db);
  auto writer = DiskTreeWriter::Create(Path("t5"));
  ASSERT_TRUE(writer.ok());
  CopyTree(memory_tree, writer->get());
  ASSERT_TRUE((*writer)->Close().ok());
  // Second close: no meta rewrite, same latched outcome.
  EXPECT_TRUE((*writer)->Close().ok());
  auto disk = DiskSuffixTree::Open(Path("t5"));
  ASSERT_TRUE(disk.ok());
  EXPECT_EQ(Canonicalize(**disk), Canonicalize(memory_tree));
}

TEST_F(DiskTreeTest, CloseBeforeFinalizeLatchesFailedPrecondition) {
  auto writer = DiskTreeWriter::Create(Path("t6"));
  ASSERT_TRUE(writer.ok());
  (*writer)->AddNode(kNilNode, {});
  const Status first = (*writer)->Close();
  EXPECT_EQ(first.code(), StatusCode::kFailedPrecondition);
  // The failure is latched: repeated calls return it and never write meta.
  EXPECT_EQ((*writer)->Close(), first);
  EXPECT_EQ((*writer)->status().code(), StatusCode::kFailedPrecondition);
  EXPECT_FALSE(DiskSuffixTree::Open(Path("t6")).ok());
}

TEST_F(DiskTreeTest, BuildDiskTreeEqualsDirectBuild) {
  for (std::uint64_t seed = 10; seed <= 13; ++seed) {
    const SymbolDatabase db = RandomSymbolDb(seed, 10, 20, 3);
    const SuffixTree whole = BuildSuffixTree(db);
    DiskBuildOptions options;
    options.batch_sequences = 3;  // Forces several binary merges.
    auto disk = BuildDiskTree(db, Path("built" + std::to_string(seed)),
                              options);
    ASSERT_TRUE(disk.ok()) << disk.status();
    EXPECT_EQ(Canonicalize(**disk), Canonicalize(whole)) << "seed " << seed;
    EXPECT_EQ((*disk)->NumNodes(), whole.NumNodes());
  }
}

TEST_F(DiskTreeTest, BuildDiskTreeCleansTemporaries) {
  const SymbolDatabase db = RandomSymbolDb(21, 9, 15, 3);
  DiskBuildOptions options;
  options.batch_sequences = 2;
  auto disk = BuildDiskTree(db, Path("clean"), options);
  ASSERT_TRUE(disk.ok());
  std::size_t files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    EXPECT_EQ(entry.path().string().find(".tmp"), std::string::npos)
        << "leftover temporary " << entry.path();
    ++files;
  }
  EXPECT_EQ(files, 4u);  // meta, nodes, occs, labels.
}

TEST_F(DiskTreeTest, BuildDiskTreeStoresTheTextOnce) {
  // Every batch tree references the database's text, so the final bundle's
  // text is the database concatenated: one label symbol per element.
  const SymbolDatabase db = RandomSymbolDb(22, 9, 15, 3);
  DiskBuildOptions options;
  options.batch_sequences = 2;
  auto disk = BuildDiskTree(db, Path("once"), options);
  ASSERT_TRUE(disk.ok()) << disk.status();
  EXPECT_EQ((*disk)->NumLabelSymbols(), db.TotalSymbols());
  const SymbolText text(db);
  EXPECT_TRUE(std::ranges::equal((*disk)->Text(), text.symbols));
  EXPECT_EQ((*disk)->MaterializedLabelSymbols(),
            BuildSuffixTree(db).MaterializedLabelSymbols());
}

TEST_F(DiskTreeTest, MaterializedLabelBundlesStillOpen) {
  // Bundles from builds that copied every edge label into `.labels` use
  // the same record layout (each label_offset points at its own copy), so
  // both read paths serve them unchanged.
  const SymbolDatabase db = RandomSymbolDb(6, 6, 20, 3);
  const SuffixTree tree = BuildSuffixTree(db);
  // Pass 1 lays every label out in pre-order; pass 2 replays the same
  // traversal, referencing each label's copy.
  std::vector<Symbol> pool;
  struct Frame {
    NodeId src;
    NodeId dst;
  };
  Children children;
  std::vector<Frame> stack = {{tree.Root(), kNilNode}};
  while (!stack.empty()) {
    const Frame f = stack.back();
    stack.pop_back();
    tree.GetChildren(f.src, &children);
    for (const Children::Edge& e : children.edges) {
      const std::span<const Symbol> label = children.Label(e);
      pool.insert(pool.end(), label.begin(), label.end());
      stack.push_back({e.child, kNilNode});
    }
  }
  auto writer = DiskTreeWriter::Create(Path("old"));
  ASSERT_TRUE(writer.ok());
  (*writer)->SetText(pool);
  std::vector<OccurrenceRec> occs;
  const NodeId root = (*writer)->AddNode(kNilNode, {});
  tree.GetOccurrences(tree.Root(), &occs);
  for (const OccurrenceRec& o : occs) (*writer)->AddOccurrence(root, o);
  std::uint64_t next = 0;
  stack = {{tree.Root(), root}};
  while (!stack.empty()) {
    const Frame f = stack.back();
    stack.pop_back();
    tree.GetChildren(f.src, &children);
    for (const Children::Edge& e : children.edges) {
      const NodeId m = (*writer)->AddNode(f.dst, {next, e.label_len});
      next += e.label_len;
      occs.clear();
      tree.GetOccurrences(e.child, &occs);
      for (const OccurrenceRec& o : occs) (*writer)->AddOccurrence(m, o);
      stack.push_back({e.child, m});
    }
  }
  (*writer)->Finalize();
  ASSERT_TRUE((*writer)->Close().ok());

  for (const storage::IoMode mode :
       {storage::IoMode::kBuffered, storage::IoMode::kMmap}) {
    DiskTreeOptions options;
    options.io_mode = mode;
    auto disk = DiskSuffixTree::Open(Path("old"), options);
    ASSERT_TRUE(disk.ok()) << disk.status();
    EXPECT_EQ(Canonicalize(**disk), Canonicalize(tree));
    EXPECT_EQ((*disk)->NumLabelSymbols(), tree.MaterializedLabelSymbols());
    EXPECT_EQ((*disk)->MaterializedLabelSymbols(),
              tree.MaterializedLabelSymbols());
  }
}

TEST_F(DiskTreeTest, DiskBackedIndexMatchesSeqScan) {
  datagen::RandomWalkOptions data_options;
  data_options.num_sequences = 10;
  data_options.avg_length = 35;
  data_options.seed = 555;
  const seqdb::SequenceDatabase db =
      datagen::GenerateRandomWalks(data_options);

  core::IndexOptions options;
  options.kind = core::IndexKind::kSparse;
  options.num_categories = 8;
  options.disk_path = Path("index");
  options.disk_batch_sequences = 3;
  options.disk_pool_pages = 4;
  auto index = core::Index::Build(&db, options);
  ASSERT_TRUE(index.ok()) << index.status();

  Rng rng(777);
  for (int qi = 0; qi < 6; ++qi) {
    std::vector<Value> q;
    Value v = rng.Uniform(20, 80);
    const auto len = static_cast<std::size_t>(rng.UniformInt(2, 6));
    for (std::size_t i = 0; i < len; ++i) {
      q.push_back(v);
      v += rng.Gaussian(0, 1);
    }
    const Value eps = rng.Uniform(0.0, 10.0);
    testutil::ExpectSameMatches(core::SeqScan(db, q, eps),
                                index->Search(q, eps),
                                "disk index query " + std::to_string(qi));
  }
}

}  // namespace
}  // namespace tswarp::suffixtree
