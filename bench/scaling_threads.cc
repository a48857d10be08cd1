// Thread-scaling of the parallel query engine: for each index kind (ST,
// ST_C, SST_C) measures the average query time of the serial searcher
// (num_threads = 0) against intra-query parallel searches and batched
// inter-query fan-out at 1, 2, 4, 8 threads, and reports the speedups.
//
// The workload is the paper's stock data with a generous epsilon so
// post-processing (candidate verification with exact DTW) dominates —
// exactly the part of SimSearch that parallelizes across subtrees and
// candidates. Expected shape on a multi-core machine: near-linear batch
// speedup, >= 2x intra-query speedup at 4 threads; on a single core all
// ratios hover around 1x.
//
// SimSearch-ST is excluded by default: it has no post-processing stage and
// its exact-value tree makes single queries take tens of seconds on the
// paper workload (Table 2 reports 55.3s); pass --st to include it.
//
// With --disk the bench additionally builds one disk-backed SST_C bundle
// and measures batch throughput through its read-only mappings.
//
// Thread counts run outermost and ascending, every index measured at one
// count before the next: the scheduler's pool only grows, so this order
// is what gives each @T column exactly T workers.
//
//   scaling_threads [--queries N] [--epsilon E] [--categories C] [--quick]
//                   [--st] [--disk] [--json]
//
// --json writes BENCH_scaling_threads.json (see report_json.h) with the
// raw per-query times, so thread-scaling baselines can be diffed across
// sessions and SIMD backends.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "report_json.h"
#include "core/index.h"

namespace tswarp {
namespace {

using bench::PaperQueries;
using bench::PaperStockDb;
using bench::Timer;
using core::Index;
using core::IndexKind;
using core::IndexOptions;
using core::QueryOptions;

/// std::thread::hardware_concurrency() with a floor of 1 (it may return 0
/// when the count is unknown).
std::size_t HardwareThreads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

double AvgQuerySeconds(const Index& index,
                       const std::vector<seqdb::Sequence>& queries,
                       Value epsilon, std::size_t num_threads) {
  QueryOptions options;
  options.num_threads = num_threads;
  Timer timer;
  for (const seqdb::Sequence& q : queries) {
    const auto matches = index.Search(q, epsilon, options);
    if (matches.size() == static_cast<std::size_t>(-1)) std::abort();
  }
  return timer.Seconds() / static_cast<double>(queries.size());
}

double BatchSeconds(const Index& index,
                    const std::vector<seqdb::Sequence>& queries,
                    Value epsilon, std::size_t num_threads) {
  std::vector<std::vector<Value>> batch(queries.begin(), queries.end());
  QueryOptions options;
  options.num_threads = num_threads;
  Timer timer;
  const auto results = index.SearchBatch(batch, {epsilon}, options);
  if (results.size() != batch.size()) std::abort();
  return timer.Seconds() / static_cast<double>(queries.size());
}

/// One measured index: its serial time and, per thread count, the
/// average query time of intra-query and batched searches. Disk rows
/// measure batches only.
struct Row {
  Row(std::string name, std::string report_prefix, Index index,
      bool query_columns)
      : name(std::move(name)),
        report_prefix(std::move(report_prefix)),
        index(std::move(index)),
        query_columns(query_columns) {}

  std::string name;
  std::string report_prefix;
  Index index;
  bool query_columns;
  double serial = 0.0;
  std::vector<double> intra;
  std::vector<double> batch;
};

int Run(int argc, char** argv) {
  const bool json = bench::StripJsonFlag(&argc, argv);
  bench::JsonReport report("scaling_threads");
  const bool quick = bench::HasFlag(argc, argv, "--quick");
  const bool include_st = bench::HasFlag(argc, argv, "--st");
  const auto num_queries = static_cast<std::size_t>(
      bench::FlagValue(argc, argv, "--queries", quick ? 8 : 24));
  const Value epsilon =
      static_cast<Value>(bench::FlagValue(argc, argv, "--epsilon", 40));
  const auto categories = static_cast<std::size_t>(
      bench::FlagValue(argc, argv, "--categories", 20));

  const seqdb::SequenceDatabase db = PaperStockDb();
  const std::vector<seqdb::Sequence> queries = PaperQueries(db, num_queries);
  // Ascending: the scheduler's pool only grows, so each @T column runs on
  // exactly T workers only if no larger count ran before it.
  std::vector<std::size_t> thread_counts = {1, 2, 4, 8};
  if (quick) thread_counts = {1, 4};

  std::vector<Row> rows;
  std::vector<IndexKind> kinds = {IndexKind::kCategorized, IndexKind::kSparse};
  if (include_st) kinds.insert(kinds.begin(), IndexKind::kSuffixTree);
  for (const IndexKind kind : kinds) {
    IndexOptions options;
    options.kind = kind;
    options.num_categories = categories;
    auto index = Index::Build(&db, options);
    if (!index.ok()) {
      std::fprintf(stderr, "build %s failed: %s\n", IndexKindToString(kind),
                   index.status().ToString().c_str());
      return 1;
    }
    rows.emplace_back(IndexKindToString(kind), IndexKindToString(kind),
                      std::move(*index), /*query_columns=*/true);
  }

  // --disk: the same batch fan-out over one disk-backed SST_C bundle,
  // searched through its read-only mappings: no lock sits between the
  // workers and the records, so the row should track the in-memory ones.
  const auto disk_dir = std::filesystem::temp_directory_path() /
                        ("tswarp_scaling_disk_" + std::to_string(::getpid()));
  const bool disk = bench::HasFlag(argc, argv, "--disk");
  if (disk) {
    std::filesystem::create_directories(disk_dir);
    IndexOptions options;
    options.kind = IndexKind::kSparse;
    options.num_categories = categories;
    options.disk_path = (disk_dir / "sst_c").string();
    options.disk_batch_sequences = 32;
    auto index = Index::Build(&db, options);
    if (!index.ok()) {
      std::fprintf(stderr, "disk build failed: %s\n",
                   index.status().ToString().c_str());
      std::filesystem::remove_all(disk_dir);
      return 1;
    }
    rows.emplace_back("disk", "disk/mmap", std::move(*index),
                      /*query_columns=*/false);
  }

  for (Row& row : rows) {
    row.serial = AvgQuerySeconds(row.index, queries, epsilon, 0);
  }
  for (const std::size_t t : thread_counts) {
    for (Row& row : rows) {
      if (row.query_columns) {
        row.intra.push_back(AvgQuerySeconds(row.index, queries, epsilon, t));
      }
      row.batch.push_back(BatchSeconds(row.index, queries, epsilon, t));
    }
  }
  if (disk) std::filesystem::remove_all(disk_dir);

  std::printf("Thread scaling; stock data, epsilon %.0f, %zu queries, "
              "%zu categories, %zu hardware threads\n\n",
              epsilon, queries.size(), categories,
              HardwareThreads());
  std::printf("%-6s %10s", "kind", "serial(s)");
  for (const std::size_t t : thread_counts) {
    char head[32];
    std::snprintf(head, sizeof head, "query@%zu", t);
    std::printf(" %8s", head);
    std::snprintf(head, sizeof head, "batch@%zu", t);
    std::printf(" %8s", head);
  }
  std::printf("\n");

  // Environment stamp: speedups from this file only make sense relative
  // to the core count of the machine that produced them.
  report.Add("env/hardware_threads", 0.0,
             {{"hardware_threads",
               static_cast<double>(HardwareThreads())}});

  // efficiency = speedup / threads: 1.0 is perfect scaling, and the
  // ceiling drops to hardware_threads / t once t oversubscribes.
  const auto add = [&](const std::string& name, double seconds,
                       double serial, std::size_t t) {
    report.Add(name, seconds * 1e9,
               {{"speedup", serial / seconds},
                {"efficiency", serial / seconds / static_cast<double>(t)}});
  };
  for (const Row& row : rows) {
    std::printf("%-6s %10.4f", row.name.c_str(), row.serial);
    report.Add(row.report_prefix + "/serial", row.serial * 1e9);
    for (std::size_t i = 0; i < thread_counts.size(); ++i) {
      const std::size_t t = thread_counts[i];
      if (row.query_columns) {
        std::printf(" %7.2fx", row.serial / row.intra[i]);
        add(row.report_prefix + "/query@" + std::to_string(t), row.intra[i],
            row.serial, t);
      } else {
        std::printf(" %8s", "-");
      }
      std::printf(" %7.2fx", row.serial / row.batch[i]);
      add(row.report_prefix + "/batch@" + std::to_string(t), row.batch[i],
          row.serial, t);
    }
    std::printf("\n");
  }
  std::printf("\n(columns are speedups vs the serial searcher; query@T = "
              "one query split across T workers, batch@T = independent "
              "queries fanned across T workers; the disk row is the "
              "mapped SST_C bundle, batches only)\n");

  if (json && !report.Write()) return 1;
  return 0;
}

}  // namespace
}  // namespace tswarp

int main(int argc, char** argv) { return tswarp::Run(argc, argv); }
