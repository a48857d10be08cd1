#include "suffixtree/disk_tree.h"

#include <algorithm>
#include <array>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <random>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/index.h"
#include "core/seq_scan.h"
#include "core/tiered_index.h"
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

TEST_F(DiskTreeTest, CloseBeforeFinalizeLatchesFailedPrecondition) {
  // Writing a tree before Finalize() is refused before any file is
  // touched, so no bundle opens.
  SuffixTree tree;
  tree.SetText(std::vector<Symbol>{1, 2, 1});
  tree.AddOccurrence(tree.AddNode(tree.Root(), {0, 3}), {0, 0, 1});
  EXPECT_EQ(WriteTreeToDisk(tree, Path("t6")).code(),
            StatusCode::kFailedPrecondition);
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
  EXPECT_EQ(files, 1u);  // clean.tsw
  EXPECT_TRUE(std::filesystem::is_regular_file(Path("clean") + ".tsw"));
}

TEST_F(DiskTreeTest, BuildDiskTreeRemovesIntermediatesOnFailure) {
  // A write that fails, in the first spill or in the final tree only (as
  // on a full disk), fails the build and leaves no file: spills and
  // intermediate merges have no name, and the build removes the final
  // tree's unpublished file.
  const SymbolDatabase db = RandomSymbolDb(23, 9, 15, 3);
  DiskBuildOptions options;
  options.batch_sequences = 2;
  ASSERT_TRUE(BuildDiskTree(db, Path("probe"), options).ok());
  // Every intermediate tree is smaller than the final one.
  const std::uint64_t final_size =
      std::filesystem::file_size(Path("probe") + ".tsw");
  std::filesystem::remove(Path("probe") + ".tsw");
  for (const std::uint64_t limit :
       {std::uint64_t{4096 + 100}, final_size - 1}) {
    Status built;
    {
      const testutil::WriteLimit lowered(limit);
      built = BuildDiskTree(db, Path("fail"), options).status();
    }
    EXPECT_EQ(built.code(), StatusCode::kIOError) << limit << ": " << built;
    for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
      ADD_FAILURE() << "limit " << limit << " left " << entry.path();
    }
  }
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
  // Bundles from builds that copied every edge label into the text use
  // the same record layout (each label_offset points at its own copy), so
  // they open unchanged.
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
  SuffixTree old;
  old.SetText(pool);
  std::vector<OccurrenceRec> occs;
  const NodeId root = old.AddNode(kNilNode, {});
  tree.GetOccurrences(tree.Root(), &occs);
  for (const OccurrenceRec& o : occs) old.AddOccurrence(root, o);
  std::uint64_t next = 0;
  stack = {{tree.Root(), root}};
  while (!stack.empty()) {
    const Frame f = stack.back();
    stack.pop_back();
    tree.GetChildren(f.src, &children);
    for (const Children::Edge& e : children.edges) {
      const NodeId m = old.AddNode(f.dst, {next, e.label_len});
      next += e.label_len;
      occs.clear();
      tree.GetOccurrences(e.child, &occs);
      for (const OccurrenceRec& o : occs) old.AddOccurrence(m, o);
      stack.push_back({e.child, m});
    }
  }
  old.Finalize();
  ASSERT_TRUE(WriteTreeToDisk(old, Path("old")).ok());

  auto disk = DiskSuffixTree::Open(Path("old"));
  ASSERT_TRUE(disk.ok()) << disk.status();
  EXPECT_EQ(Canonicalize(**disk), Canonicalize(tree));
  EXPECT_EQ((*disk)->NumLabelSymbols(), tree.MaterializedLabelSymbols());
  EXPECT_EQ((*disk)->MaterializedLabelSymbols(),
            tree.MaterializedLabelSymbols());
}

// Writers never produce the legacy `.sums` section: a bundle written now
// has the three-section table and opens whole.
using NodeSummaryDiskTest = DiskTreeTest;

TEST_F(NodeSummaryDiskTest, BundleWithoutSectionOpensCleanly) {
  const std::string base = Path("plain");
  const SymbolDatabase db = RandomSymbolDb(22, 6, 24, 3);
  const SuffixTree tree = BuildSuffixTree(db);
  ASSERT_TRUE(WriteTreeToDisk(tree, base).ok());
  EXPECT_FALSE(std::filesystem::exists(base + ".sums"));
  auto disk = DiskSuffixTree::Open(base);
  ASSERT_TRUE(disk.ok()) << disk.status();
  EXPECT_EQ((*disk)->NumNodes(), tree.NumNodes());
  EXPECT_EQ(Canonicalize(**disk), Canonicalize(tree));
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

// --- bundle bytes: the exact file a build writes, and the sections a tier
// merge maps. The constants pin the format and the record order (node and
// occurrence ids, child and occurrence prepend order, subtree sums); a
// change to any of them is a format change, not a refactoring. The data
// come from raw mt19937_64 output, which the standard fixes, not from a
// distribution. One constant pins the 4 KiB header and one each the node,
// occurrence and label sections. The section pins are those of the format
// v3 region files, whose records the sections hold unchanged; the node
// pins are in turn the hashes of the format v2 files with the zero high
// word of each 32-byte record's u64 label_offset (bytes 4-7) dropped.

std::uint64_t Fnv1a(const std::string& bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

std::string FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// The header page and the node, occurrence and label sections of the
/// bundle at `base`.
std::array<std::string, 4> BundleParts(const std::string& base) {
  const std::string file = FileBytes(base + ".tsw");
  return {file.substr(0, 4096), testutil::BundleSection(file, 0),
          testutil::BundleSection(file, 1), testutil::BundleSection(file, 2)};
}

void ExpectBundleHashes(const std::string& base,
                        const std::array<std::uint64_t, 4>& want) {
  const char* names[] = {"header", "nodes", "occs", "labels"};
  ASSERT_TRUE(std::filesystem::is_regular_file(base + ".tsw")) << base;
  const std::array<std::string, 4> parts = BundleParts(base);
  for (std::size_t i = 0; i < 4; ++i) {
    const std::uint64_t got = Fnv1a(parts[i]);
    EXPECT_EQ(got, want[i]) << base << " " << names[i] << " hashes to 0x"
                            << std::hex << got;
  }
}

template <typename Record>
std::string RecordBytes(std::span<const Record> records) {
  const std::span<const std::byte> bytes = std::as_bytes(records);
  return {reinterpret_cast<const char*>(bytes.data()), bytes.size()};
}

// The node and occurrence sections are the tree's vectors as they are, the
// sections follow the header back to back, and the mapped tree reads those
// same bytes.
TEST_F(DiskTreeTest, RecordRegionsEqualTheInMemoryRecords) {
  BuildOptions options;
  options.sparse = true;
  const SuffixTree tree =
      BuildSuffixTree(RandomSymbolDb(31, 7, 30, 4), options);
  ASSERT_GT(tree.NumNodes(), 1u);
  ASSERT_TRUE(WriteTreeToDisk(tree, Path("records")).ok());
  const std::string nodes = RecordBytes(tree.NodeRecords());
  const std::string occs = RecordBytes(tree.OccRecords());
  EXPECT_EQ(nodes.size(), tree.NumNodes() * 28);
  EXPECT_EQ(occs.size(), tree.NumOccurrences() * 16);
  const std::array<std::string, 4> parts = BundleParts(Path("records"));
  EXPECT_TRUE(parts[1] == nodes);
  EXPECT_TRUE(parts[2] == occs);
  EXPECT_TRUE(FileBytes(Path("records") + ".tsw") ==
              parts[0] + parts[1] + parts[2] + parts[3]);
  auto disk = DiskSuffixTree::Open(Path("records"));
  ASSERT_TRUE(disk.ok()) << disk.status();
  EXPECT_TRUE(RecordBytes((*disk)->NodeRecords()) == nodes);
  EXPECT_TRUE(RecordBytes((*disk)->OccRecords()) == occs);
  // Both report the bundle's size, and the mapping is the whole file.
  const std::uint64_t footprint =
      std::filesystem::file_size(Path("records") + ".tsw");
  EXPECT_EQ(tree.SizeBytes(), footprint);
  EXPECT_EQ((*disk)->SizeBytes(), footprint);
  EXPECT_EQ((*disk)->MappedBytes(), footprint);
}

TEST_F(DiskTreeTest, BuildDiskTreeBundleBytesArePinned) {
  std::mt19937_64 engine(2024);
  SymbolDatabase db;
  for (int i = 0; i < 10; ++i) {
    SymbolSequence s(8 + engine() % 20);
    for (Symbol& x : s) x = static_cast<Symbol>(engine() % 3);
    db.Add(std::move(s));
  }
  DiskBuildOptions options;
  options.build.sparse = true;
  options.batch_sequences = 3;  // Four spills, three merges.
  ASSERT_TRUE(BuildDiskTree(db, Path("pinned"), options).ok());
  ExpectBundleHashes(Path("pinned"),
                     {0x6250413e3f9ea8acull, 0xe943043d193ef8d7ull,
                      0x7c740f9c7e8f39f2ull, 0xe03d302ce0a249e7ull});
}

TEST_F(DiskTreeTest, TierMergeBundleBytesArePinned) {
  std::mt19937_64 engine(7);
  const auto sequence = [&] {
    seqdb::Sequence s(10 + engine() % 10);
    for (Value& v : s) v = static_cast<Value>(engine() % 5);
    return s;
  };
  seqdb::SequenceDatabase db;
  for (int i = 0; i < 4; ++i) db.Add(sequence());
  core::TieredOptions options;
  options.index.kind = core::IndexKind::kSuffixTree;
  options.index.disk_path = Path("tiered");
  options.memtable_max_sequences = 2;
  options.max_sealed_tiers = 1;
  options.merge_in_background = false;
  auto tiered = core::TieredIndex::Create(&db, options);
  ASSERT_TRUE(tiered.ok()) << tiered.status();
  // Appends 2 and 4 seal two-sequence tiers; the second seal, over a
  // budget of one sealed tier, merges both on disk.
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE((*tiered)->Append(sequence()).ok());
  }
  ASSERT_EQ((*tiered)->Stats().merges_completed, 1u);
  // The merged tier is a scratch tree with no file name: its sections are
  // read through its mapping.
  const std::shared_ptr<const core::IndexSnapshot> snapshot =
      (*tiered)->Snapshot();
  ASSERT_GE(snapshot->tiers().size(), 2u);
  const DiskSuffixTree* merged = snapshot->tiers()[1]->disk_tree.get();
  ASSERT_NE(merged, nullptr);
  EXPECT_EQ(Fnv1a(RecordBytes(merged->NodeRecords())),
            0xba9a25cc3eb540cdull);
  EXPECT_EQ(Fnv1a(RecordBytes(merged->OccRecords())), 0xa0af8cc675b7368bull);
  EXPECT_EQ(Fnv1a(RecordBytes(merged->Text())), 0x4e69c0cea46dfd51ull);
}

}  // namespace
}  // namespace tswarp::suffixtree
