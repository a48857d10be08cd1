// Reproduces Table 1 of the paper: index sizes (KB) of ST, ST_C (EL, ME)
// and SST_C (EL, ME) on the stock data set for category counts
// {10, 20, 40, 80, 120, 160, 200, 250, 300}.
//
// Two figures per index. The Table-1 figure counts every edge label
// materialized, the accounting the paper's sizes follow; it reproduces
// the paper's shape: ST is orders of magnitude larger than ST_C; SST_C is
// smaller than ST_C; both categorized indexes grow with the number of
// categories; ME indexes are larger than EL at the same count
// (better-balanced categories share fewer long runs). The stored figure
// is what tswarp actually keeps: labels reference the symbol text, so it
// is linear in the data and only node and occurrence counts tell the
// indexes apart.

#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "categorize/categorizer.h"
#include "core/index.h"

namespace tswarp {
namespace {

using bench::PaperStockDb;
using categorize::Method;
using core::Index;
using core::IndexKind;
using core::IndexOptions;

struct SizeKb {
  double table1 = -1;
  double stored = -1;
};

SizeKb IndexKb(const seqdb::SequenceDatabase& db, IndexKind kind,
               Method method, std::size_t categories) {
  IndexOptions options;
  options.kind = kind;
  options.method = method;
  options.num_categories = categories;
  auto index = Index::Build(&db, options);
  if (!index.ok()) {
    std::fprintf(stderr, "build failed: %s\n",
                 index.status().ToString().c_str());
    return {};
  }
  return {static_cast<double>(index->build_info().table1_bytes) / 1024.0,
          static_cast<double>(index->build_info().index_bytes) / 1024.0};
}

void PrintTable(const char* title, const std::vector<std::size_t>& counts,
                const SizeKb& st, const std::vector<std::vector<SizeKb>>& rows,
                double SizeKb::*field) {
  std::printf("%s\n", title);
  std::printf("%-6s %12s %12s %12s %12s %12s\n", "#cat", "ST", "ST_C(EL)",
              "ST_C(ME)", "SST_C(EL)", "SST_C(ME)");
  for (std::size_t i = 0; i < counts.size(); ++i) {
    std::printf("%-6zu %12.0f", counts[i], st.*field);
    for (const SizeKb& kb : rows[i]) std::printf(" %12.0f", kb.*field);
    std::printf("\n");
  }
  std::printf("\n");
}

int Run(int argc, char** argv) {
  const bool quick = bench::HasFlag(argc, argv, "--quick");
  const seqdb::SequenceDatabase db = PaperStockDb();
  std::printf("Table 1: index sizes (KB); stock data, %zu sequences, "
              "avg length %.0f, database %.0f KB\n",
              db.size(), db.AverageLength(),
              static_cast<double>(db.DataBytes()) / 1024.0);
  std::printf("(paper reports: ST 158,512 KB; ST_C/SST_C grow with "
              "#categories; SST_C << ST_C << ST)\n\n");

  const SizeKb st = IndexKb(db, IndexKind::kSuffixTree, Method::kMaxEntropy, 0);
  std::vector<std::size_t> counts = {10, 20, 40, 80, 120, 160, 200, 250, 300};
  if (quick) counts = {10, 40, 160};
  std::vector<std::vector<SizeKb>> rows;
  for (std::size_t c : counts) {
    rows.push_back({IndexKb(db, IndexKind::kCategorized, Method::kEqualLength,
                            c),
                    IndexKb(db, IndexKind::kCategorized, Method::kMaxEntropy,
                            c),
                    IndexKb(db, IndexKind::kSparse, Method::kEqualLength, c),
                    IndexKb(db, IndexKind::kSparse, Method::kMaxEntropy, c)});
  }
  PrintTable("Table-1 figure (every edge label materialized, as the paper "
             "counts):",
             counts, st, rows, &SizeKb::table1);
  PrintTable("Stored (labels reference the symbol text):", counts, st, rows,
             &SizeKb::stored);
  return 0;
}

}  // namespace
}  // namespace tswarp

int main(int argc, char** argv) { return tswarp::Run(argc, argv); }
