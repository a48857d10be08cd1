// Coherence of the SearchStats instrumentation across the searchers: the
// counters feed the paper's R_d / R_p analyses and the benches, so they
// must obey basic accounting identities.

#include <set>
#include <utility>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/index.h"
#include "core/seq_scan.h"
#include "datagen/generators.h"

namespace tswarp::core {
namespace {

seqdb::SequenceDatabase Db() {
  datagen::StockOptions options;
  options.num_sequences = 20;
  options.avg_length = 60;
  options.seed = 77;
  return datagen::GenerateStocks(options);
}

std::vector<Value> Query(const seqdb::SequenceDatabase& db) {
  return std::vector<Value>(db.sequence(3).begin() + 10,
                            db.sequence(3).begin() + 18);
}

TEST(SearchStatsTest, TreeSearchAccountingIdentities) {
  const seqdb::SequenceDatabase db = Db();
  for (IndexKind kind : {IndexKind::kSuffixTree, IndexKind::kCategorized,
                         IndexKind::kSparse}) {
    IndexOptions options;
    options.kind = kind;
    options.num_categories = 12;
    auto index = Index::Build(&db, options);
    ASSERT_TRUE(index.ok());
    SearchStats stats;
    const auto matches = index->Search(Query(db), 6.0, {}, &stats);
    SCOPED_TRACE(IndexKindToString(kind));
    EXPECT_EQ(stats.answers, matches.size());
    if (kind == IndexKind::kSuffixTree) {
      // Exact rows: every emitted occurrence is an answer, and nothing is
      // verified.
      EXPECT_EQ(stats.candidates, matches.size());
      EXPECT_EQ(stats.exact_dtw_calls, 0u);
      EXPECT_EQ(stats.endpoint_rejections, 0u);
      EXPECT_EQ(stats.lb_invocations, 0u);
    } else {
      // A candidate is one start scanned: either its first element alone
      // exceeds the threshold (no row built) or it gets one exact scan,
      // under the running bound.
      EXPECT_EQ(stats.candidates,
                stats.exact_dtw_calls + stats.endpoint_rejections);
      EXPECT_EQ(stats.lb_invocations, stats.candidates);
      EXPECT_LE(stats.endpoint_rejections, stats.lb_pruned);
      EXPECT_LE(stats.lb_pruned, stats.lb_invocations);
      // Each start is scanned at most once, and every answer's start was.
      EXPECT_LE(stats.candidates, db.TotalElements());
      std::set<std::pair<SeqId, Pos>> starts;
      for (const Match& m : matches) starts.insert({m.seq, m.start});
      EXPECT_LE(starts.size(), stats.exact_dtw_calls);
    }
    // Rows/cells relation: every pushed filter row computes |Q| cells
    // (the exact scans count in neither).
    EXPECT_EQ(stats.cells_computed, stats.rows_pushed * 8);
    // Each row serves at least one stored suffix.
    EXPECT_GE(stats.unshared_rows, stats.rows_pushed);
    EXPECT_GT(stats.nodes_visited, 0u);

    if (kind == IndexKind::kSuffixTree) continue;
    // With a threshold no distance reaches and no pruning, every path
    // passes at its first row: each start of the database is resolved
    // exactly once and every subsequence is an answer.
    QueryOptions all;
    all.prune = false;
    SearchStats everything;
    const auto every = index->Search(Query(db), 1e12, all, &everything);
    EXPECT_EQ(everything.candidates, db.TotalElements());
    EXPECT_EQ(everything.exact_dtw_calls, db.TotalElements());
    // Only the root is expanded: one row per root edge, then resolution.
    EXPECT_EQ(everything.nodes_visited, 1u);
    EXPECT_EQ(everything.branches_pruned, 0u);
    std::uint64_t subsequences = 0;
    for (SeqId id = 0; id < db.size(); ++id) {
      const std::uint64_t n = db.sequence(id).size();
      subsequences += n * (n + 1) / 2;
    }
    EXPECT_EQ(every.size(), subsequences);
  }
}

TEST(SearchStatsTest, EndpointScreenFiresOnLowerBoundModes) {
  const seqdb::SequenceDatabase db = Db();
  IndexOptions options;
  options.kind = IndexKind::kSparse;
  options.num_categories = 4;  // Loose bounds -> many starts resolved.
  auto index = Index::Build(&db, options);
  ASSERT_TRUE(index.ok());
  SearchStats stats;
  const auto matches = index->Search(Query(db), 3.0, {}, &stats);
  EXPECT_GT(stats.endpoint_rejections, 0u)
      << "with 4 categories and a tight epsilon many resolved starts "
         "begin too far from Q[1] for any length to match";
  // An endpoint rejection is the running bound's cut at the first
  // element: the start gets no exact row.
  EXPECT_EQ(stats.candidates,
            stats.exact_dtw_calls + stats.endpoint_rejections);
  EXPECT_LE(stats.endpoint_rejections, stats.lb_pruned);

  // The filter alone decides which starts are resolved; without the
  // running bound the same starts are all scanned exactly.
  QueryOptions no_lb;
  no_lb.use_lower_bound = false;
  SearchStats plain;
  const auto unscreened = index->Search(Query(db), 3.0, no_lb, &plain);
  EXPECT_EQ(plain.candidates, stats.candidates);
  EXPECT_EQ(plain.endpoint_rejections, 0u);
  EXPECT_EQ(plain.exact_dtw_calls, plain.candidates);
  EXPECT_EQ(unscreened.size(), matches.size());
}

TEST(SearchStatsTest, SeqScanAccountingIdentities) {
  const seqdb::SequenceDatabase db = Db();
  SearchStats stats;
  const auto q = Query(db);
  const auto matches = SeqScan(db, q, 5.0, {}, &stats);
  EXPECT_EQ(stats.answers, matches.size());
  EXPECT_EQ(stats.cells_computed, stats.rows_pushed * q.size());
  // Every suffix either pushes at least one row or is cut by the running
  // envelope bound before its first row; the cascade runs once per suffix.
  EXPECT_GE(stats.rows_pushed + stats.lb_pruned, db.TotalElements());
  EXPECT_EQ(stats.lb_invocations, db.TotalElements());

  // Without the cascade every suffix builds at least one row, and the
  // match set is unchanged.
  SeqScanOptions no_lb;
  no_lb.use_lower_bound = false;
  SearchStats plain;
  const auto unfiltered = SeqScan(db, q, 5.0, no_lb, &plain);
  EXPECT_GE(plain.rows_pushed, db.TotalElements());
  EXPECT_EQ(plain.lb_invocations, 0u);
  EXPECT_EQ(plain.lb_pruned, 0u);
  EXPECT_EQ(unfiltered.size(), matches.size());
}

TEST(SearchStatsTest, LowerBoundCascadeCountsOnTreeSearch) {
  const seqdb::SequenceDatabase db = Db();
  IndexOptions options;
  options.kind = IndexKind::kSparse;
  options.num_categories = 4;  // Loose filter -> many starts to scan.
  auto index = Index::Build(&db, options);
  ASSERT_TRUE(index.ok());
  SearchStats stats;
  const auto matches = index->Search(Query(db), 3.0, {}, &stats);
  // Every resolved start runs under the running bound once; exact rows
  // are built for every start the endpoint term admits.
  EXPECT_EQ(stats.lb_invocations, stats.candidates);
  EXPECT_EQ(stats.exact_dtw_calls,
            stats.candidates - stats.endpoint_rejections);
  EXPECT_GE(stats.lb_pruned, stats.endpoint_rejections);
  EXPECT_GT(stats.lb_pruned, 0u);

  // The same starts without the bound: no cuts, every one scanned, same
  // answers.
  QueryOptions no_lb;
  no_lb.use_lower_bound = false;
  SearchStats plain;
  const auto unscreened = index->Search(Query(db), 3.0, no_lb, &plain);
  EXPECT_EQ(plain.lb_invocations, 0u);
  EXPECT_EQ(plain.lb_pruned, 0u);
  EXPECT_EQ(plain.candidates, stats.candidates);
  EXPECT_EQ(plain.exact_dtw_calls, plain.candidates);
  EXPECT_EQ(unscreened.size(), matches.size());

  // Under a band the envelope is local and tight: its terms cut scans
  // that the endpoint term admits.
  IndexOptions dense;
  dense.kind = IndexKind::kCategorized;
  dense.num_categories = 4;
  auto banded_index = Index::Build(&db, dense);
  ASSERT_TRUE(banded_index.ok());
  QueryOptions banded;
  banded.band = 2;
  SearchStats band_stats;
  banded_index->Search(Query(db), 3.0, banded, &band_stats);
  EXPECT_EQ(band_stats.lb_invocations, band_stats.candidates);
  EXPECT_EQ(band_stats.exact_dtw_calls,
            band_stats.candidates - band_stats.endpoint_rejections);
  EXPECT_GT(band_stats.lb_pruned, band_stats.endpoint_rejections)
      << "the banded envelope should cut scans past their first element";
}

TEST(SearchStatsTest, SchedulerCountersTrackParallelExecution) {
  const seqdb::SequenceDatabase db = Db();
  IndexOptions options;
  options.kind = IndexKind::kCategorized;
  options.num_categories = 12;
  auto index = Index::Build(&db, options);
  ASSERT_TRUE(index.ok());

  SearchStats serial;
  index->Search(Query(db), 6.0, {}, &serial);
  EXPECT_EQ(serial.tasks_executed, 0u);
  EXPECT_EQ(serial.tasks_stolen, 0u);
  EXPECT_EQ(serial.steal_attempts, 0u);
  EXPECT_EQ(serial.replayed_rows, 0u);

  QueryOptions parallel;
  parallel.num_threads = 4;
  SearchStats par;
  index->Search(Query(db), 6.0, parallel, &par);
  // At least the root task ran. Whether it counts as stolen depends on
  // who took it: a pool worker (stolen) or the waiting submitter helping
  // itself (not) — timing-dependent, so only the bound is asserted.
  EXPECT_GE(par.tasks_executed, 1u);
  EXPECT_LE(par.tasks_stolen, par.tasks_executed);
  // Replay happens only when a task actually split off a non-root branch;
  // either way the cells identity covers the replayed rows.
  EXPECT_EQ(par.cells_computed,
            (par.rows_pushed + par.replayed_rows) * Query(db).size());

  // Merge sums the scheduler counters like every other field.
  SearchStats merged = serial;
  merged.Merge(par);
  EXPECT_EQ(merged.tasks_executed, par.tasks_executed);
  EXPECT_EQ(merged.tasks_stolen, par.tasks_stolen);
  EXPECT_EQ(merged.steal_attempts, par.steal_attempts);
}

TEST(SearchStatsTest, RdGrowsWithCoarserCategories) {
  const seqdb::SequenceDatabase db = Db();
  const auto q = Query(db);
  double prev_rd = 1e18;
  for (std::size_t c : {4u, 16u, 64u}) {
    IndexOptions options;
    options.kind = IndexKind::kSparse;
    options.num_categories = c;
    auto index = Index::Build(&db, options);
    ASSERT_TRUE(index.ok());
    SearchStats stats;
    index->Search(q, 8.0, {}, &stats);
    const double rd = static_cast<double>(stats.unshared_rows) /
                      static_cast<double>(stats.rows_pushed);
    EXPECT_GE(rd, 1.0);
    // Coarser categories share longer prefixes: R_d should not increase
    // as categories get finer (allow slack for pruning interactions).
    EXPECT_LE(rd, prev_rd * 1.5) << "c=" << c;
    prev_rd = rd;
  }
}

}  // namespace
}  // namespace tswarp::core
