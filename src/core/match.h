#ifndef TSWARP_CORE_MATCH_H_
#define TSWARP_CORE_MATCH_H_

#include <cstdint>
#include <tuple>
#include <vector>

#include "common/types.h"

namespace tswarp::core {

/// One answer of a similarity search: the subsequence
/// S_seq[start : start+len-1] (0-based, inclusive length) whose exact time
/// warping distance to the query is `distance` (<= the search threshold).
struct Match {
  SeqId seq;
  Pos start;
  Pos len;
  Value distance;

  friend bool operator==(const Match& a, const Match& b) {
    return a.seq == b.seq && a.start == b.start && a.len == b.len;
  }
};

/// Canonical ordering for comparing result sets across searchers.
inline bool MatchLess(const Match& a, const Match& b) {
  return std::tie(a.seq, a.start, a.len) < std::tie(b.seq, b.start, b.len);
}

/// Instrumentation counters filled by the searchers; used by the benches to
/// report the paper's R_d / R_p reduction factors and by tests. In parallel
/// searches each worker fills a private instance and the per-worker stats
/// are combined with Merge(), so the totals stay exact under concurrency.
struct SearchStats {
  std::uint64_t nodes_visited = 0;      // Tree nodes expanded.
  std::uint64_t rows_pushed = 0;        // Cumulative-table rows built
                                        // (tree: filter rows only).
  // Rows an unshared per-suffix filter would have built for the same
  // traversal: each pushed row serves every stored suffix below its edge.
  // R_d (paper Section 4.3) = unshared_rows / rows_pushed.
  std::uint64_t unshared_rows = 0;
  std::uint64_t cells_computed = 0;     // Cumulative-table cells built.
  std::uint64_t branches_pruned = 0;    // Theorem-1 cutoffs taken.
  // Verification counters, per *start* (core::ScanStart, shared by SeqScan
  // and the tree searches' subtree resolution; see docs/tuning.md
  // "Reading the stats"). A start is one S[p:] scanned exactly for every
  // length at once. On exact (ST) trees nothing is verified: candidates
  // counts emitted answers and the rest stay 0.
  std::uint64_t candidates = 0;         // Starts scanned.
  std::uint64_t endpoint_rejections = 0;  // Starts whose first element
                                          // alone exceeds the threshold:
                                          // no row built.
  // Running lower bound (endpoint cost + LB_Keogh's per-element terms,
  // accumulated as the scan extends; docs/tuning.md "Lower-bound
  // cascade"): an invocation is one start scanned under it, a prune one
  // start it ended (endpoint rejections included).
  std::uint64_t lb_invocations = 0;
  std::uint64_t lb_pruned = 0;
  // Node-summary pre-filter (subtree hulls screened before descending an
  // edge; see docs/tuning.md "Node summaries & the recall dial"). An
  // invocation is one edge screened against the summary hulls; a prune
  // skips the child's entire subtree with zero row-step work.
  std::uint64_t summary_lb_invocations = 0;
  std::uint64_t nodes_pruned_by_summary = 0;
  std::uint64_t exact_dtw_calls = 0;    // Starts given >= 1 exact row:
                                        // candidates - endpoint_rejections.
  std::uint64_t answers = 0;            // Final matches.
  // Prefix rows re-pushed by parallel workers entering a branch task (the
  // duplicated table work parallelism pays for; 0 in serial searches).
  // Replay cells are included in cells_computed, so the serial identity
  // cells_computed == rows_pushed * |Q| relaxes to
  // (rows_pushed + replayed_rows) * |Q| when replayed_rows > 0.
  std::uint64_t replayed_rows = 0;
  // Work-stealing scheduler counters; all 0 in serial searches.
  std::uint64_t tasks_executed = 0;  // Branch tasks run for this query.
  // Tasks executed by a thread other than the one that submitted them
  // (includes the externally injected root task when a pool worker takes
  // it, so parallel searches always report at least 1).
  std::uint64_t tasks_stolen = 0;
  // Steal probes (deque inspections) observed process-wide during this
  // query's window. Unlike every other counter this is not attributed
  // per-query: concurrent searches on the shared scheduler inflate each
  // other's windows. Useful as a contention signal, not an exact count.
  std::uint64_t steal_attempts = 0;
  // Workers that observed an expired CancelToken and stopped early
  // (QueryOptions::cancel). Nonzero means the result set is a sound
  // *subset* of the full answer: every reported match is exact, but the
  // traversal did not finish. 0 for complete searches.
  std::uint64_t cancelled = 0;

  /// Accumulates another worker's counters into this one.
  void Merge(const SearchStats& other) {
    nodes_visited += other.nodes_visited;
    rows_pushed += other.rows_pushed;
    unshared_rows += other.unshared_rows;
    cells_computed += other.cells_computed;
    branches_pruned += other.branches_pruned;
    candidates += other.candidates;
    endpoint_rejections += other.endpoint_rejections;
    lb_invocations += other.lb_invocations;
    lb_pruned += other.lb_pruned;
    summary_lb_invocations += other.summary_lb_invocations;
    nodes_pruned_by_summary += other.nodes_pruned_by_summary;
    exact_dtw_calls += other.exact_dtw_calls;
    answers += other.answers;
    replayed_rows += other.replayed_rows;
    tasks_executed += other.tasks_executed;
    tasks_stolen += other.tasks_stolen;
    steal_attempts += other.steal_attempts;
    cancelled += other.cancelled;
  }
};

}  // namespace tswarp::core

#endif  // TSWARP_CORE_MATCH_H_
