#include "core/seq_scan.h"

#include <optional>

#include "common/logging.h"
#include "common/task_scheduler.h"
#include "core/result_collector.h"

namespace tswarp::core {

namespace {

/// Scans every suffix of one sequence, reporting matches into `collector`
/// (via `scratch`) and counters into `stats`. Self-contained per sequence —
/// its own scan table — so sequences can run serially or as one
/// scheduler task each with identical per-suffix computations.
void ScanSequence(const seqdb::SequenceDatabase& db, SeqId id,
                  std::span<const Value> query, Value epsilon,
                  const SeqScanOptions& options,
                  const dtw::QueryEnvelope* env, ResultCollector* collector,
                  std::vector<Match>* scratch, SearchStats* stats) {
  const seqdb::Sequence& s = db.sequence(id);
  const auto n = static_cast<Pos>(s.size());
  dtw::ScanTable table(query, options.band);
  for (Pos p = 0; p < n; ++p) {
    const StartScanWork work = ScanStart(
        ValueSuffix(query, std::span<const Value>(s).subspan(p), env), &table,
        options.prune, [epsilon] { return epsilon; },
        [&](Pos len, Value dist) {
          collector->Report({id, p, len, dist}, scratch);
        },
        stats);
    stats->rows_pushed += work.rows;
    if (work.theorem1_cut) ++stats->branches_pruned;
  }
  stats->cells_computed += table.cells_computed();
}

}  // namespace

std::vector<Match> SeqScan(const seqdb::SequenceDatabase& db,
                           std::span<const Value> query, Value epsilon,
                           const SeqScanOptions& options, SearchStats* stats) {
  TSW_CHECK(!query.empty());
  SearchStats local;
  // Per-suffix emission is in (seq, start, len) ascending order; Take()'s
  // final sort makes the output independent of sequence execution order,
  // so serial and parallel scans return byte-identical answers.
  ResultCollector collector(epsilon, /*knn_k=*/0);
  // Running lower bound (see ScanStart): D_tw(Q, S[p:q]) >= the endpoint
  // cost plus the later elements' envelope distances, and the sum only
  // grows with q, so once it passes epsilon every further extension of
  // this suffix is out too — an O(1) per-element cut ahead of the O(|Q|)
  // row build + Theorem-1 test.
  std::optional<dtw::QueryEnvelope> env;
  if (options.use_lower_bound) env.emplace(query, options.band);
  const dtw::QueryEnvelope* env_ptr = env.has_value() ? &*env : nullptr;

  if (options.num_threads == 0 || db.size() <= 1) {
    std::vector<Match> scratch;
    for (SeqId id = 0; id < db.size(); ++id) {
      ScanSequence(db, id, query, epsilon, options, env_ptr, &collector,
                   &scratch, &local);
    }
    collector.DrainRange(&scratch);
  } else {
    // One task per sequence on the shared work-stealing scheduler. Each
    // task owns its table, scratch vector, and stats slot; slots are
    // merged single-threaded after the scope joins.
    TaskScheduler::Get().EnsureWorkers(options.num_threads);
    std::vector<SearchStats> per_seq(db.size());
    TaskScope scope;
    for (SeqId id = 0; id < db.size(); ++id) {
      scope.Submit([&, id] {
        std::vector<Match> scratch;
        ScanSequence(db, id, query, epsilon, options, env_ptr, &collector,
                     &scratch, &per_seq[id]);
        collector.DrainRange(&scratch);
      });
    }
    scope.Wait();
    for (const SearchStats& s : per_seq) local.Merge(s);
  }

  std::vector<Match> out = collector.Take();
  local.answers = out.size();
  if (stats != nullptr) *stats = local;
  return out;
}

}  // namespace tswarp::core
