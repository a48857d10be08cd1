// Extension E2: k-nearest-subsequence search. Reports the adaptive
// branch-and-bound search time vs the cost of an equivalent range search
// at the k-th distance (which the caller cannot know a priori — the k-NN
// search discovers it while pruning).
//
// --json writes BENCH_ext_knn.json (see report_json.h): one entry per k
// with the per-query k-NN latency, the oracle range query's latency, and
// both searches' exact-scan rows (scan_rows) and scanned starts
// (candidates), summed over the queries. The row counts are deterministic,
// so CI gates the k-NN/oracle scan_rows ratio without timing noise.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/index.h"
#include "report_json.h"

namespace tswarp {
namespace {

using bench::JsonReport;
using bench::PaperQueries;
using bench::PaperStockDb;
using bench::Timer;
using core::Index;
using core::IndexKind;
using core::IndexOptions;
using core::SearchStats;

int Run(int argc, char** argv) {
  const bool json = bench::StripJsonFlag(&argc, argv);
  JsonReport report("ext_knn");
  const bool quick = bench::HasFlag(argc, argv, "--quick");
  const auto num_queries = static_cast<std::size_t>(
      bench::FlagValue(argc, argv, "--queries", quick ? 3 : 10));
  const seqdb::SequenceDatabase db = PaperStockDb();
  const std::vector<seqdb::Sequence> queries = PaperQueries(db, num_queries);

  IndexOptions options;
  options.kind = IndexKind::kSparse;
  options.num_categories = 60;
  auto index = Index::Build(&db, options);
  if (!index.ok()) return 1;

  std::printf("Extension E2: k-NN subsequence search, SST_C(ME,60), "
              "%zu queries\n\n", queries.size());
  std::printf("%-6s %12s %14s %16s %16s %14s %14s\n", "k", "knn (s)",
              "kth distance", "rows pushed", "oracle range(s)",
              "knn scan rows", "oracle scan");
  const auto n = static_cast<double>(queries.size());
  for (const std::size_t k : std::vector<std::size_t>{1, 10, 100, 1000}) {
    double knn_seconds = 0.0;
    double kth_sum = 0.0;
    SearchStats knn_total;
    std::vector<Value> kth_per_query;
    for (const seqdb::Sequence& q : queries) {
      SearchStats stats;
      Timer timer;
      const auto result = index->SearchKnn(q, k, {}, &stats);
      knn_seconds += timer.Seconds();
      knn_total.Merge(stats);
      const Value kth = result.empty() ? 0.0 : result.back().distance;
      kth_per_query.push_back(kth);
      kth_sum += kth;
    }
    // Oracle: a range search at exactly the k-th distance (the best a
    // range query could do if it magically knew the right epsilon).
    double oracle_seconds = 0.0;
    SearchStats oracle_total;
    for (std::size_t i = 0; i < queries.size(); ++i) {
      SearchStats stats;
      Timer timer;
      index->Search(queries[i], kth_per_query[i], {}, &stats);
      oracle_seconds += timer.Seconds();
      oracle_total.Merge(stats);
    }
    std::printf("%-6zu %12.4f %14.3f %16llu %16.4f %14llu %14llu\n", k,
                knn_seconds / n, kth_sum / n,
                static_cast<unsigned long long>(knn_total.rows_pushed),
                oracle_seconds / n,
                static_cast<unsigned long long>(knn_total.scan_rows),
                static_cast<unsigned long long>(oracle_total.scan_rows));
    report.Add(
        "k/" + std::to_string(k), knn_seconds / n * 1e9,
        {{"oracle_ns", oracle_seconds / n * 1e9},
         {"kth_distance", kth_sum / n},
         {"knn_rows_pushed", static_cast<double>(knn_total.rows_pushed)},
         {"knn_scan_rows", static_cast<double>(knn_total.scan_rows)},
         {"oracle_scan_rows", static_cast<double>(oracle_total.scan_rows)},
         {"knn_candidates", static_cast<double>(knn_total.candidates)},
         {"oracle_candidates",
          static_cast<double>(oracle_total.candidates)}});
  }
  if (json && !report.Write()) return 1;
  return 0;
}

}  // namespace
}  // namespace tswarp

int main(int argc, char** argv) { return tswarp::Run(argc, argv); }
