// Ablation A6: the running lower bound of the per-start exact scans
// (endpoint term + LB_Keogh's per-element terms, core::ScanStart) on vs
// off, for the categorized tree searches and the SeqScan baseline, across
// thresholds. Reports the exact scans (starts given a row) with and
// without it and the share of scanned starts it ended; the match sets are
// asserted identical (the bound admits no false dismissals), so any
// divergence aborts the run.

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench_util.h"
#include "core/index.h"
#include "core/seq_scan.h"

namespace tswarp {
namespace {

using bench::PaperQueries;
using bench::PaperStockDb;
using bench::Timer;
using core::Index;
using core::IndexKind;
using core::IndexOptions;
using core::Match;
using core::QueryOptions;
using core::SearchStats;

void ExpectIdentical(const std::vector<Match>& a,
                     const std::vector<Match>& b, const char* what) {
  if (a.size() != b.size()) {
    std::fprintf(stderr, "FATAL: %s: lb on/off answer sets differ "
                 "(%zu vs %zu)\n", what, a.size(), b.size());
    std::abort();
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!(a[i] == b[i]) || a[i].distance != b[i].distance) {
      std::fprintf(stderr, "FATAL: %s: answer %zu differs\n", what, i);
      std::abort();
    }
  }
}

int Run(int argc, char** argv) {
  const bool quick = bench::HasFlag(argc, argv, "--quick");
  const auto num_queries = static_cast<std::size_t>(
      bench::FlagValue(argc, argv, "--queries", quick ? 3 : 10));
  const seqdb::SequenceDatabase db = PaperStockDb();
  const std::vector<seqdb::Sequence> queries = PaperQueries(db, num_queries);

  IndexOptions options;
  options.kind = IndexKind::kSparse;
  options.num_categories = 40;
  auto index = Index::Build(&db, options);
  if (!index.ok()) return 1;

  std::printf("Ablation A6: running lower bound, SST_C(ME,40), "
              "%zu queries\n\n", queries.size());
  std::printf("%-6s %10s %10s %9s %12s %12s %10s %10s\n", "eps", "lb(s)",
              "nolb(s)", "speedup", "dtw(lb)", "dtw(nolb)", "lb_pruned",
              "prune%");
  for (const Value eps : std::vector<Value>{2, 5, 10, 20, 40}) {
    SearchStats with_lb{}, without_lb{};
    std::vector<std::vector<Match>> lb_answers, plain_answers;
    Timer t1;
    for (const seqdb::Sequence& q : queries) {
      SearchStats s;
      lb_answers.push_back(index->Search(q, eps, {}, &s));
      with_lb.Merge(s);
    }
    const double lb_time = t1.Seconds();
    QueryOptions no_lb;
    no_lb.use_lower_bound = false;
    Timer t2;
    for (const seqdb::Sequence& q : queries) {
      SearchStats s;
      plain_answers.push_back(index->Search(q, eps, no_lb, &s));
      without_lb.Merge(s);
    }
    const double plain_time = t2.Seconds();
    for (std::size_t i = 0; i < queries.size(); ++i) {
      ExpectIdentical(plain_answers[i], lb_answers[i], "tree search");
    }
    std::printf("%-6.0f %10.4f %10.4f %8.1fx %12llu %12llu %10llu %9.1f%%\n",
                eps, lb_time / static_cast<double>(queries.size()),
                plain_time / static_cast<double>(queries.size()),
                plain_time / lb_time,
                static_cast<unsigned long long>(with_lb.exact_dtw_calls),
                static_cast<unsigned long long>(without_lb.exact_dtw_calls),
                static_cast<unsigned long long>(with_lb.lb_pruned),
                with_lb.lb_invocations == 0
                    ? 0.0
                    : 100.0 * static_cast<double>(with_lb.lb_pruned) /
                          static_cast<double>(with_lb.lb_invocations));
  }

  std::printf("\nSeqScan (same running bound), same queries\n\n");
  std::printf("%-6s %10s %10s %9s %14s %14s %10s\n", "eps", "lb(s)",
              "nolb(s)", "speedup", "rows(lb)", "rows(nolb)", "lb_pruned");
  for (const Value eps : std::vector<Value>{2, 10, 40}) {
    SearchStats with_lb{}, without_lb{};
    Timer t1;
    for (const seqdb::Sequence& q : queries) {
      SearchStats s;
      const auto fast = core::SeqScan(db, q, eps, {}, &s);
      with_lb.Merge(s);
      core::SeqScanOptions no_lb;
      no_lb.use_lower_bound = false;
      SearchStats s2;
      const auto plain = core::SeqScan(db, q, eps, no_lb, &s2);
      without_lb.Merge(s2);
      ExpectIdentical(plain, fast, "seq scan");
    }
    (void)t1;
    // Re-time each variant separately (the verification pass above mixes
    // them).
    Timer tl;
    for (const seqdb::Sequence& q : queries) core::SeqScan(db, q, eps);
    const double lb_time = tl.Seconds();
    core::SeqScanOptions no_lb;
    no_lb.use_lower_bound = false;
    Timer tp;
    for (const seqdb::Sequence& q : queries) {
      core::SeqScan(db, q, eps, no_lb);
    }
    const double plain_time = tp.Seconds();
    std::printf("%-6.0f %10.4f %10.4f %8.1fx %14llu %14llu %10llu\n", eps,
                lb_time / static_cast<double>(queries.size()),
                plain_time / static_cast<double>(queries.size()),
                plain_time / lb_time,
                static_cast<unsigned long long>(with_lb.rows_pushed),
                static_cast<unsigned long long>(without_lb.rows_pushed),
                static_cast<unsigned long long>(with_lb.lb_pruned));
  }
  return 0;
}

}  // namespace
}  // namespace tswarp

int main(int argc, char** argv) { return tswarp::Run(argc, argv); }
