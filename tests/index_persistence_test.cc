// Persistence of disk-backed indexes: Build writes one bundle file with a
// fingerprint in its header and publishes it with one rename; Open
// re-derives the categorizer deterministically and reuses the bundle,
// returning identical answers without rebuilding.

#include <sys/wait.h>

#include <csignal>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "categorize/categorizer.h"
#include "common/random.h"
#include "core/index.h"
#include "core/seq_scan.h"
#include "datagen/generators.h"
#include "suffixtree/disk_tree.h"
#include "test_util.h"

namespace tswarp::core {
namespace {

std::string ReadFile(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// Asserts that `got` holds the matches of `want`, distances bit for bit.
void ExpectByteIdentical(std::vector<Match> want, std::vector<Match> got,
                         const std::string& context) {
  std::sort(want.begin(), want.end(), MatchLess);
  std::sort(got.begin(), got.end(), MatchLess);
  ASSERT_EQ(want.size(), got.size()) << context;
  for (std::size_t m = 0; m < want.size(); ++m) {
    EXPECT_TRUE(want[m] == got[m] &&
                std::memcmp(&want[m].distance, &got[m].distance,
                            sizeof(Value)) == 0)
        << context << " match " << m;
  }
}

/// The fixture under tests/data/legacy_sums and the options its README
/// says built it (`tswarp_cli build --kind sstc --categories 10`).
const std::filesystem::path kLegacyFixture =
    std::filesystem::path(TSWARP_TEST_DATA_DIR) / "legacy_sums";

IndexOptions LegacyFixtureOptions(const std::filesystem::path& base) {
  IndexOptions options;
  options.kind = IndexKind::kSparse;
  options.num_categories = 10;
  options.disk_path = base.string();
  return options;
}

class IndexPersistenceTest : public testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("tswarp_persist_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
    datagen::RandomWalkOptions data;
    data.num_sequences = 12;
    data.avg_length = 40;
    data.seed = 404;
    db_ = datagen::GenerateRandomWalks(data);
    data.seed = 405;
    other_ = datagen::GenerateRandomWalks(data);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  IndexOptions DiskOptions(const std::string& name) {
    IndexOptions options;
    options.kind = IndexKind::kSparse;
    options.num_categories = 10;
    options.disk_path = (dir_ / name).string();
    options.disk_batch_sequences = 4;
    return options;
  }

  std::filesystem::path dir_;
  seqdb::SequenceDatabase db_;
  // Another database of the same shape.
  seqdb::SequenceDatabase other_;
};

TEST_F(IndexPersistenceTest, OpenReturnsIdenticalAnswers) {
  const IndexOptions options = DiskOptions("a");
  auto built = Index::Build(&db_, options);
  ASSERT_TRUE(built.ok()) << built.status();
  auto reopened = Index::Open(&db_, options);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ(reopened->build_info().num_nodes,
            built->build_info().num_nodes);
  EXPECT_EQ(reopened->build_info().stored_suffixes,
            built->build_info().stored_suffixes);
  EXPECT_DOUBLE_EQ(reopened->build_info().compaction_ratio,
                   built->build_info().compaction_ratio);

  Rng rng(11);
  for (int qi = 0; qi < 5; ++qi) {
    std::vector<Value> q;
    Value v = rng.Uniform(20, 80);
    for (int i = 0; i < 4; ++i) {
      q.push_back(v);
      v += rng.Gaussian(0, 1);
    }
    const Value eps = rng.Uniform(0, 8);
    testutil::ExpectSameMatches(built->Search(q, eps),
                                reopened->Search(q, eps), "reopened");
    testutil::ExpectSameMatches(SeqScan(db_, q, eps),
                                reopened->Search(q, eps), "vs scan");
  }
}

TEST_F(IndexPersistenceTest, OpenRejectsMissingBundle) {
  auto reopened = Index::Open(&db_, DiskOptions("missing"));
  EXPECT_FALSE(reopened.ok());
  // NotFound is what tells the tools to build a bundle instead of
  // refusing one.
  EXPECT_EQ(reopened.status().code(), StatusCode::kNotFound);
}

TEST_F(IndexPersistenceTest, OpenRejectsMemoryOnlyOptions) {
  IndexOptions options;
  options.kind = IndexKind::kSparse;
  auto reopened = Index::Open(&db_, options);
  EXPECT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(IndexPersistenceTest, OpenRejectsChangedOptions) {
  const IndexOptions options = DiskOptions("b");
  ASSERT_TRUE(Index::Build(&db_, options).ok());
  IndexOptions changed = options;
  changed.num_categories = 20;
  auto reopened = Index::Open(&db_, changed);
  EXPECT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(reopened.status().message().find("different options"),
            std::string::npos)
      << reopened.status();
}

// Same database and options, but the alphabet Open derives is not the one
// the bundle's symbols were built over, as after a change to a
// categorizer: the fingerprint's symbols hash (u64 at byte 64 of the
// fingerprint, which starts at byte 88 of the bundle) tells.
TEST_F(IndexPersistenceTest, OpenRejectsAChangedAlphabet) {
  const IndexOptions options = DiskOptions("alphabet");
  ASSERT_TRUE(Index::Build(&db_, options).ok());
  {
    std::fstream f(options.disk_path + ".tsw",
                   std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekg(88 + 64);
    char byte = 0;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 1);
    f.seekp(88 + 64);
    f.write(&byte, 1);
  }
  auto reopened = Index::Open(&db_, options);
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(reopened.status().message().find("different alphabet"),
            std::string::npos)
      << reopened.status();
}

TEST_F(IndexPersistenceTest, OpenRejectsChangedDatabase) {
  const IndexOptions options = DiskOptions("c");
  ASSERT_TRUE(Index::Build(&db_, options).ok());
  seqdb::SequenceDatabase other;
  other.Add({1, 2, 3});
  auto reopened = Index::Open(&other, options);
  EXPECT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kFailedPrecondition);
}

// Same shape, different values: the fingerprint's sequence and element
// counts agree, so only its content hash can tell. Opening the bundle
// would search one database's tree against another's values and miss
// answers without a word.
TEST_F(IndexPersistenceTest, OpenRejectsSameShapeWithDifferentValues) {
  const IndexOptions options = DiskOptions("d");
  ASSERT_TRUE(Index::Build(&db_, options).ok());
  const seqdb::SequenceDatabase& other = other_;
  ASSERT_EQ(other.size(), db_.size());
  ASSERT_EQ(other.TotalElements(), db_.TotalElements());
  auto reopened = Index::Open(&other, options);
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(reopened.status().message().find("different database"),
            std::string::npos)
      << reopened.status();

  // One flipped value bit is enough.
  seqdb::SequenceDatabase nudged;
  for (SeqId id = 0; id < db_.size(); ++id) {
    seqdb::Sequence seq = db_.sequence(id);
    if (id == db_.size() - 1) seq.back() = std::nextafter(seq.back(), 1e9);
    nudged.Add(std::move(seq));
  }
  EXPECT_EQ(Index::Open(&nudged, options).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_TRUE(Index::Open(&db_, options).ok());
}

// A bundle written while builds still attached node summaries: format v2,
// with a 4-entry section table announcing `walk.sums` (see
// tests/data/legacy_sums). This build reads format v4 only, so Open must
// refuse it with a Corruption that says to rebuild; a rebuild at the same
// base writes `walk.tsw` beside the old files and answers exactly like
// SeqScan.
TEST_F(IndexPersistenceTest,
       LegacyBundleIsRefusedAndRebuildAnswersLikeSeqScan) {
  for (const char* ext :
       {".meta", ".nodes", ".occs", ".labels", ".sums", ".index"}) {
    std::filesystem::copy_file(kLegacyFixture / (std::string("walk") + ext),
                               dir_ / (std::string("walk") + ext));
  }
  auto db =
      seqdb::SequenceDatabase::Load((kLegacyFixture / "walk.tsdb").string());
  ASSERT_TRUE(db.ok()) << db.status();
  const IndexOptions options = LegacyFixtureOptions(dir_ / "walk");

  auto refused = Index::Open(&*db, options);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kCorruption)
      << refused.status();
  EXPECT_NE(refused.status().message().find("rebuild"), std::string::npos)
      << refused.status();

  ASSERT_TRUE(Index::Build(&*db, options).ok());
  auto index = Index::Open(&*db, options);
  ASSERT_TRUE(index.ok()) << index.status();
  EXPECT_EQ(index->MappedStats().mapped_bytes,
            std::filesystem::file_size(dir_ / "walk.tsw"));
  std::size_t answers = 0;
  Rng rng(15);
  for (int qi = 0; qi < 6; ++qi) {
    const SeqId seq = static_cast<SeqId>(rng.UniformInt(0, 7));
    const auto start = static_cast<std::size_t>(rng.UniformInt(0, 40));
    std::vector<Value> q(db->sequence(seq).begin() + start,
                         db->sequence(seq).begin() + start + 6);
    for (Value& v : q) v += rng.Gaussian(0, 0.5);
    const Value eps = rng.Uniform(2, 10);
    const std::vector<Match> got = index->Search(q, eps);
    ExpectByteIdentical(SeqScan(*db, q, eps), got,
                        "query " + std::to_string(qi));
    answers += got.size();
  }
  EXPECT_GT(answers, 0u) << "the fixture queries should find answers";

  // Removing the bundle removes its one file.
  suffixtree::RemoveDiskTree(options.disk_path);
  EXPECT_FALSE(std::filesystem::exists(dir_ / "walk.tsw"));
}

// Writer pin: the fixture's record regions were written by an older
// writer, which patched records in place through a page cache. Rebuilding
// its database with the same options must reproduce them byte for byte in
// the sections of the rebuilt `walk.tsw`, up to each fixture section's
// byte_length (the old writer zero-padded every region file to a whole
// page). Its `.nodes` is format v2, 32-byte records whose label_offset is
// a u64; the rebuilt records are the same bytes without that u64's high
// word (bytes 4-7), always zero.
TEST_F(IndexPersistenceTest, RebuildReproducesLegacyFixtureRegions) {
  auto db =
      seqdb::SequenceDatabase::Load((kLegacyFixture / "walk.tsdb").string());
  ASSERT_TRUE(db.ok()) << db.status();
  const IndexOptions options = LegacyFixtureOptions(dir_ / "walk");
  ASSERT_TRUE(Index::Build(&*db, options).ok());

  // Section entry i starts at byte 48 of the meta page (a 40-byte header,
  // then section_count and record_alignment); byte_length is its last
  // u64.
  const std::string meta = ReadFile(kLegacyFixture / "walk.meta");
  const std::string rebuilt = ReadFile(dir_ / "walk.tsw");
  const char* exts[] = {".nodes", ".occs", ".labels"};
  for (std::size_t i = 0; i < 3; ++i) {
    std::uint64_t byte_length = 0;
    ASSERT_GE(meta.size(), 48 + 24 * (i + 1));
    std::memcpy(&byte_length, meta.data() + 48 + 24 * i + 16,
                sizeof(byte_length));
    EXPECT_GT(byte_length, 0u) << exts[i];
    const std::string want =
        ReadFile(kLegacyFixture / (std::string("walk") + exts[i]));
    const std::string got = testutil::BundleSection(rebuilt, i);
    ASSERT_GE(want.size(), byte_length) << exts[i];
    if (i == 0) {
      ASSERT_EQ(byte_length % 32, 0u);
      std::string v3;
      for (std::size_t r = 0; r < byte_length; r += 32) {
        EXPECT_EQ(want.compare(r + 4, 4, std::string(4, '\0')), 0)
            << "high label_offset word of node " << r / 32;
        v3.append(want, r, 4);
        v3.append(want, r + 8, 24);
      }
      EXPECT_TRUE(got == v3) << ".nodes differs from the fixture's records";
      continue;
    }
    ASSERT_GE(got.size(), byte_length) << exts[i];
    EXPECT_TRUE(want.compare(0, byte_length, got, 0, byte_length) == 0)
        << exts[i] << " differs from the fixture";
  }
}

// --- crash windows. A Build over an existing bundle writes every file
// under a temporary name and publishes the last with one rename, so
// whatever byte a crash stops it at, the base path names either the old
// bundle or the new one. The tests below stop a Build with SIGXFSZ at
// chosen file sizes (RLIMIT_FSIZE in a forked child, so no clean-up runs)
// and check that Open then refuses, or answers exactly like SeqScan, for
// the old database and the new one.

/// Opens the index at `options` for `db`: it must refuse (NotFound,
/// Corruption or FailedPrecondition) or answer like SeqScan, bit for bit.
/// Returns whether it opened.
bool OpenRefusesOrAnswersLikeSeqScan(const seqdb::SequenceDatabase& db,
                                     const IndexOptions& options,
                                     const std::string& context) {
  auto index = Index::Open(&db, options);
  if (!index.ok()) {
    const StatusCode code = index.status().code();
    EXPECT_TRUE(code == StatusCode::kNotFound ||
                code == StatusCode::kCorruption ||
                code == StatusCode::kFailedPrecondition)
        << context << ": " << index.status();
    return false;
  }
  for (const SeqId seq : {0u, 5u, 11u}) {
    const std::vector<Value> q(db.sequence(seq).begin(),
                               db.sequence(seq).begin() + 6);
    ExpectByteIdentical(SeqScan(db, q, 4.0), index->Search(q, 4.0),
                        context + ", query from sequence " +
                            std::to_string(seq));
  }
  return true;
}

/// The file sizes at which a Build of `db` under `options` moves from one
/// part of a file to the next, for every file it writes: each spill of
/// `disk_batch_sequences` sequences and each merge of the two oldest
/// pending trees, as BuildDiskTree does them. The file-size limit applies
/// to the unnamed scratch files as to the named last one. Per file: 0, the
/// end of the 4 KiB header, and the ends of the node (28 B per node),
/// occurrence (16 B each) and label (4 B per symbol of the whole database)
/// sections.
std::vector<std::uint64_t> BuildFileBoundaries(
    const seqdb::SequenceDatabase& db, const IndexOptions& options) {
  auto alphabet = categorize::Build(options.method,
                                    categorize::CollectValues(db),
                                    options.num_categories, options.seed);
  EXPECT_TRUE(alphabet.ok()) << alphabet.status();
  if (!alphabet.ok()) return {};
  const categorize::CategorizedDatabase symbols =
      categorize::ConvertDatabase(db, &*alphabet);
  suffixtree::BuildOptions build;
  build.sparse = options.kind == IndexKind::kSparse;
  std::vector<std::vector<SeqId>> files;
  std::deque<std::vector<SeqId>> pending;
  for (SeqId begin = 0; begin < db.size();
       begin += static_cast<SeqId>(options.disk_batch_sequences)) {
    std::vector<SeqId> batch;
    for (SeqId id = begin;
         id < db.size() && id < begin + options.disk_batch_sequences; ++id) {
      batch.push_back(id);
    }
    files.push_back(batch);
    pending.push_back(batch);
  }
  while (pending.size() > 1) {
    std::vector<SeqId> merged = pending.front();
    pending.pop_front();
    merged.insert(merged.end(), pending.front().begin(),
                  pending.front().end());
    pending.pop_front();
    files.push_back(merged);
    pending.push_back(merged);
  }
  std::vector<std::uint64_t> boundaries;
  for (const std::vector<SeqId>& ids : files) {
    suffixtree::SymbolDatabase part;
    for (const SeqId id : ids) part.Add(symbols.sequence(id));
    const suffixtree::SuffixTree tree =
        suffixtree::BuildSuffixTree(part, build);
    const std::uint64_t nodes_end = 4096 + 28 * tree.NumNodes();
    const std::uint64_t occs_end = nodes_end + 16 * tree.NumOccurrences();
    const std::uint64_t labels_end = occs_end + 4 * db.TotalElements();
    boundaries.insert(boundaries.end(),
                      {0, 4096, nodes_end, occs_end, labels_end});
  }
  return boundaries;
}

/// Runs in a forked child: builds under a file-size limit of `limit`
/// bytes, so the first write past it raises SIGXFSZ, which kills the
/// child where it stands. Exits 0 if the build finished.
[[noreturn]] void BuildUnderWriteLimit(const seqdb::SequenceDatabase* db,
                                       const IndexOptions& options,
                                       std::uint64_t limit) {
  testutil::KillAtWriteLimit(limit);
  std::_Exit(Index::Build(db, options).ok() ? 0 : 1);
}

bool KilledByWriteLimitOrBuilt(int status) {
  return (WIFSIGNALED(status) && WTERMSIG(status) == SIGXFSZ) ||
         (WIFEXITED(status) && WEXITSTATUS(status) == 0);
}

TEST_F(IndexPersistenceTest, CrashAtAnyWriteServesOneBundleOrRefuses) {
  const IndexOptions options = DiskOptions("idx");
  ASSERT_TRUE(Index::Build(&db_, options).ok());
  const std::string bundle = options.disk_path + ".tsw";
  const std::string old_bundle = ReadFile(bundle);

  // Every boundary of every file the build of other_ writes, one byte
  // either side, and a 512-byte grid between them.
  std::set<std::uint64_t> limits;
  for (const std::uint64_t b : BuildFileBoundaries(other_, options)) {
    if (b > 0) limits.insert(b - 1);
    limits.insert(b);
    limits.insert(b + 1);
  }
  ASSERT_GE(limits.size(), 10u);
  for (std::uint64_t grid = 0; grid < *limits.rbegin(); grid += 512) {
    limits.insert(grid);
  }

  int old_served = 0;
  int new_served = 0;
  for (const std::uint64_t limit : limits) {
    const std::string context = "write limit " + std::to_string(limit);
    EXPECT_EXIT(BuildUnderWriteLimit(&other_, options, limit),
                KilledByWriteLimitOrBuilt, "")
        << context;
    // Spills and intermediate merges have no name: a kill leaves the
    // bundle and at most the final tree's unpublished file.
    std::set<std::string> names = testutil::FileNames(dir_);
    names.erase("idx.tmp.tsw");
    EXPECT_EQ(names, std::set<std::string>{"idx.tsw"}) << context;
    const bool old_ok =
        OpenRefusesOrAnswersLikeSeqScan(db_, options, context + ", old db");
    const bool new_ok =
        OpenRefusesOrAnswersLikeSeqScan(other_, options, context + ", new db");
    // The rename is the one step between the two: never neither, never
    // both.
    EXPECT_NE(old_ok, new_ok) << context;
    old_served += old_ok;
    new_served += new_ok;

    // Back to the old bundle alone.
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    std::ofstream(bundle, std::ios::binary) << old_bundle;
  }
  EXPECT_GT(old_served, 0);
  EXPECT_GT(new_served, 0);

  // The state no write limit reaches: a crash between the fsync and the
  // rename of the last file leaves it complete under its temporary name,
  // next to the old bundle.
  IndexOptions elsewhere = DiskOptions("elsewhere");
  ASSERT_TRUE(Index::Build(&other_, elsewhere).ok());
  std::filesystem::rename(elsewhere.disk_path + ".tsw",
                          options.disk_path + ".tmp.tsw");
  EXPECT_TRUE(OpenRefusesOrAnswersLikeSeqScan(db_, options,
                                              "unpublished, old db"));
  EXPECT_FALSE(OpenRefusesOrAnswersLikeSeqScan(other_, options,
                                               "unpublished, new db"));
  // The next build writes over it and publishes.
  ASSERT_TRUE(Index::Build(&other_, options).ok());
  EXPECT_TRUE(OpenRefusesOrAnswersLikeSeqScan(other_, options,
                                              "rebuilt, new db"));
  EXPECT_FALSE(std::filesystem::exists(options.disk_path + ".tmp.tsw"));

  // A build of many batches killed mid-merge, then a build of fewer
  // batches at the same base: the second build leaves the bundle alone,
  // whatever the first was writing when it died.
  std::filesystem::remove_all(dir_);
  std::filesystem::create_directories(dir_);
  datagen::RandomWalkOptions data;
  data.num_sequences = 40;
  data.avg_length = 40;
  data.seed = 406;
  const seqdb::SequenceDatabase many = datagen::GenerateRandomWalks(data);
  // Room for every spill (each file's last boundary is its size), not
  // for every merge.
  const std::vector<std::uint64_t> bounds = BuildFileBoundaries(many, options);
  const std::size_t batch = options.disk_batch_sequences;
  const std::size_t spills = (many.size() + batch - 1) / batch;
  ASSERT_EQ(bounds.size(), 5 * (2 * spills - 1));
  std::uint64_t largest_spill = 0;
  for (std::size_t f = 0; f < spills; ++f) {
    largest_spill = std::max(largest_spill, bounds[5 * f + 4]);
  }
  ASSERT_LT(largest_spill, bounds.back());
  EXPECT_EXIT(BuildUnderWriteLimit(&many, options, largest_spill),
              testing::KilledBySignal(SIGXFSZ), "");
  ASSERT_TRUE(Index::Build(&db_, options).ok());
  EXPECT_EQ(testutil::FileNames(dir_), std::set<std::string>{"idx.tsw"});
  EXPECT_TRUE(OpenRefusesOrAnswersLikeSeqScan(db_, options,
                                              "after a killed larger build"));
}

// The whole-file form of a crash that pairs one database's fingerprint
// with another's tree: the fingerprint lives in the file it guards, so
// swapping whole bundle files between two databases is refused.
TEST_F(IndexPersistenceTest, SwappedBundleFilesAreRefused) {
  const IndexOptions a = DiskOptions("a");
  const IndexOptions b = DiskOptions("b");
  ASSERT_TRUE(Index::Build(&db_, a).ok());
  ASSERT_TRUE(Index::Build(&other_, b).ok());
  const std::string swap = (dir_ / "swap.tsw").string();
  std::filesystem::rename(a.disk_path + ".tsw", swap);
  std::filesystem::rename(b.disk_path + ".tsw", a.disk_path + ".tsw");
  std::filesystem::rename(swap, b.disk_path + ".tsw");
  for (const auto& [db, options] :
       {std::pair{&db_, a}, std::pair{&other_, b}}) {
    auto opened = Index::Open(db, options);
    ASSERT_FALSE(opened.ok()) << options.disk_path;
    EXPECT_EQ(opened.status().code(), StatusCode::kFailedPrecondition);
    EXPECT_NE(opened.status().message().find("different database"),
              std::string::npos)
        << opened.status();
  }
}

TEST_F(IndexPersistenceTest, BuildThatCannotWriteFailsAndKeepsTheOldBundle) {
  const IndexOptions options = DiskOptions("idx");
  ASSERT_TRUE(Index::Build(&db_, options).ok());
  {
    // Room for a header and a few bytes: the first section write fails.
    const testutil::WriteLimit limit(4096 + 100);
    auto built = Index::Build(&other_, options);
    ASSERT_FALSE(built.ok());
    EXPECT_EQ(built.status().code(), StatusCode::kIOError) << built.status();
  }
  EXPECT_TRUE(OpenRefusesOrAnswersLikeSeqScan(db_, options, "old db"));
  EXPECT_FALSE(OpenRefusesOrAnswersLikeSeqScan(other_, options, "new db"));
  std::size_t files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    EXPECT_EQ(entry.path().filename().string(), "idx.tsw");
    ++files;
  }
  EXPECT_EQ(files, 1u);
}

}  // namespace
}  // namespace tswarp::core
