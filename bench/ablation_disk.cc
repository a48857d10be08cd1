// Ablation A4: disk-resident traversal — the effect that explains the
// paper's Table 2 ordering. In RAM the exact ST is fast on modern
// hardware; but the ST bundle is ~60x the database size, so when the tree
// must come off the disk (the paper's 1999 setting, a small buffer pool)
// the compact SST_C should win. Bundles are read through read-only
// mappings, so the kernel page cache plays the pool: every cold batch
// starts from a dropped page cache (posix_fadvise POSIX_FADV_DONTNEED on
// the bundle's files) and reports major faults (getrusage) and the bytes
// read from storage (/proc/self/io) beside time; the warm batch repeats
// it with the bundle resident. Both batches include the reopen. Open's MADV_WILLNEED read-ahead brings
// most pages in before a query touches them, so the bytes read show the
// disk traffic better than the major-fault count does.
//
// Second axis: the cost of opening a bundle. Open maps the regions and
// validates every record once; --json records it as open/mmap with a
// traversal_to_open counter (one full traversal of the same mapped tree
// divided by the open time), which CI bounds from below so Open stays a
// small fraction of reading the tree.

#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/index.h"
#include "report_json.h"
#include "suffixtree/disk_tree.h"

namespace tswarp {
namespace {

using bench::JsonReport;
using bench::PaperQueries;
using bench::Timer;
using core::Index;
using core::IndexKind;
using core::IndexOptions;

/// Major page faults of this process so far.
long MajorFaults() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return usage.ru_majflt;
}

/// Bytes this process has caused to be read from storage so far; 0 where
/// the kernel does not report them.
std::uint64_t StorageReadBytes() {
  std::ifstream io("/proc/self/io");
  std::string key;
  std::uint64_t value = 0;
  while (io >> key >> value) {
    if (key == "read_bytes:") return value;
  }
  return 0;
}

/// Asks the kernel to drop the cached pages of the bundle file at
/// `base`. Pages still mapped by a live index are not dropped, so the
/// caller closes the index first.
void DropPageCache(const std::string& base) {
  const int fd = ::open((base + ".tsw").c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return;
  (void)::posix_fadvise(fd, 0, 0, POSIX_FADV_DONTNEED);
  ::close(fd);
}

/// Runs every query once; returns the total answer count.
std::uint64_t RunQueries(const Index& index,
                         const std::vector<seqdb::Sequence>& queries,
                         Value epsilon) {
  std::uint64_t answers = 0;
  for (const seqdb::Sequence& q : queries) {
    answers += index.Search(q, epsilon).size();
  }
  return answers;
}

/// Mean over `reps` of the time to open the bundle at `base`.
double OpenSeconds(const std::string& base, int reps) {
  double total = 0;
  for (int r = 0; r < reps; ++r) {
    Timer timer;
    auto tree = suffixtree::DiskSuffixTree::Open(base);
    total += timer.Seconds();
    if (!tree.ok()) {
      std::fprintf(stderr, "open failed: %s\n",
                   tree.status().ToString().c_str());
      return -1;
    }
  }
  return total / reps;
}

/// Mean over `reps` of one full traversal of the open tree (every node and
/// occurrence record, the scan a merge makes).
double TraverseSeconds(const suffixtree::DiskSuffixTree& tree, int reps) {
  double total = 0;
  std::vector<suffixtree::OccurrenceRec> occs;
  for (int r = 0; r < reps; ++r) {
    occs.clear();
    Timer timer;
    tree.CollectSubtreeOccurrences(tree.Root(), &occs);
    total += timer.Seconds();
  }
  return total / reps;
}

int Run(int argc, char** argv) {
  const bool json = bench::StripJsonFlag(&argc, argv);
  JsonReport report("ablation_disk");
  const bool quick = bench::HasFlag(argc, argv, "--quick");
  const auto num_queries = static_cast<std::size_t>(
      bench::FlagValue(argc, argv, "--queries", quick ? 2 : 5));
  const Value epsilon =
      static_cast<Value>(bench::FlagValue(argc, argv, "--epsilon", 10));

  // A smaller stock set keeps the on-disk ST build quick while preserving
  // the ST-vs-SST_C size ratio.
  datagen::StockOptions stock_options;
  stock_options.num_sequences = quick ? 60 : 150;
  const seqdb::SequenceDatabase db = datagen::GenerateStocks(stock_options);
  const std::vector<seqdb::Sequence> queries = PaperQueries(db, num_queries);

  const auto dir = std::filesystem::temp_directory_path() /
                   ("tswarp_ablation_disk_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);

  std::printf("Ablation A4: disk-resident indexes, %zu stock sequences, "
              "epsilon %.0f, %zu queries\n\n",
              db.size(), epsilon, queries.size());
  std::printf("%-8s %-6s %10s %15s %13s %13s\n", "index", "cache",
              "size KB", "time/query (s)", "major faults", "KB read");

  struct Config {
    IndexKind kind;
    const char* name;
  };
  for (const Config& config :
       {Config{IndexKind::kSuffixTree, "ST"},
        Config{IndexKind::kSparse, "SST_C"}}) {
    IndexOptions options;
    options.kind = config.kind;
    options.num_categories = 20;
    options.disk_path = (dir / config.name).string();
    options.disk_batch_sequences = 32;
    std::uint64_t bundle_bytes = 0;
    {
      auto built = Index::Build(&db, options);
      if (!built.ok()) {
        std::fprintf(stderr, "build failed: %s\n",
                     built.status().ToString().c_str());
        continue;
      }
      bundle_bytes = built->build_info().index_bytes;
    }
    // Each batch reopens the bundle (which maps it and validates every
    // record) and runs the queries; the cold batch first drops the
    // bundle's pages from the page cache, so every page it touches comes
    // off the disk again. Both pay the same reopen CPU, so cold minus
    // warm is the cost of reading the bundle.
    for (const bool cold : {true, false}) {
      if (cold) DropPageCache(options.disk_path);
      const long faults_before = MajorFaults();
      const std::uint64_t read_before = StorageReadBytes();
      Timer timer;
      auto index = Index::Open(&db, options);
      if (!index.ok()) {
        std::fprintf(stderr, "open failed: %s\n",
                     index.status().ToString().c_str());
        break;
      }
      const std::uint64_t answers = RunQueries(*index, queries, epsilon);
      const double seconds =
          timer.Seconds() / static_cast<double>(queries.size());
      const long faults = MajorFaults() - faults_before;
      const std::uint64_t read = StorageReadBytes() - read_before;
      const char* cache = cold ? "cold" : "warm";
      std::printf("%-8s %-6s %10.0f %15.4f %13ld %13.0f\n", config.name,
                  cache, static_cast<double>(bundle_bytes) / 1024.0, seconds,
                  faults, static_cast<double>(read) / 1024.0);
      report.Add(std::string(cache) + "/" + config.name, seconds * 1e9,
                 {{"major_faults", static_cast<double>(faults)},
                  {"read_bytes", static_cast<double>(read)},
                  {"answers", static_cast<double>(answers)}});
    }
  }
  std::printf("\n(time/query includes the reopen; the cold batch first "
              "drops the bundle's pages from the page cache — the regime "
              "behind the paper's slow ST in Table 2: the ST bundle is "
              "larger than the SST_C one, so it reads more from disk)\n");

  // --- Open cost against one full traversal of the same mapped tree.
  IndexOptions open_build;
  open_build.kind = IndexKind::kSparse;
  open_build.num_categories = 20;
  open_build.disk_path = (dir / "open").string();
  open_build.disk_batch_sequences = 32;
  auto index = Index::Build(&db, open_build);
  if (!index.ok()) {
    std::fprintf(stderr, "open-axis build failed: %s\n",
                 index.status().ToString().c_str());
    return 1;
  }
  const int reps = quick ? 3 : 5;
  const double open = OpenSeconds(open_build.disk_path, reps);
  if (open < 0) return 1;
  const double traverse = TraverseSeconds(*index->disk_tree(), reps);
  Timer query_timer;
  const std::uint64_t answers = RunQueries(*index, queries, epsilon);
  const double per_query =
      query_timer.Seconds() / static_cast<double>(queries.size());
  const double ratio = open > 0 ? traverse / open : 0;

  std::printf("\nOne SST_C bundle, warm page cache:\n");
  std::printf("%-10s %12.3f ms\n", "open", open * 1e3);
  std::printf("%-10s %12.3f ms\n", "traverse", traverse * 1e3);
  std::printf("%-10s %12.3f ms\n", "query", per_query * 1e3);
  std::printf("(one full traversal costs %.1fx an open)\n", ratio);
  report.Add("open/mmap", open * 1e9,
             {{"traversal_to_open", ratio},
              {"mapped_bytes",
               static_cast<double>(index->MappedStats().mapped_bytes)}});
  report.Add("traverse/mmap", traverse * 1e9);
  report.Add("query/mmap", per_query * 1e9,
             {{"answers", static_cast<double>(answers)}});

  std::filesystem::remove_all(dir);
  if (json && !report.Write()) return 1;
  return 0;
}

}  // namespace
}  // namespace tswarp

int main(int argc, char** argv) { return tswarp::Run(argc, argv); }
