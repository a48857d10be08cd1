#ifndef TSWARP_CORE_TREE_SEARCH_H_
#define TSWARP_CORE_TREE_SEARCH_H_

#include <span>
#include <vector>

#include "categorize/alphabet.h"
#include "common/cancellation.h"
#include "common/types.h"
#include "core/match.h"
#include "seqdb/sequence_database.h"
#include "suffixtree/tree_view.h"

namespace tswarp::core {

/// Configuration of one suffix-tree similarity search. Three paper modes:
///
///   SimSearch-ST     exact = true,  sparse = false   (dictionary tree)
///   SimSearch-ST_C   exact = false, sparse = false   (categorized tree)
///   SimSearch-SST_C  exact = false, sparse = true    (sparse categorized)
///
/// In exact mode the cumulative table is built from `symbol_values` (the
/// dictionary decode) and LastColumn() is already the exact D_tw, so
/// answers need no post-processing. In lower-bound mode rows use the
/// category intervals of `alphabet` (D_tw-lb, Definition 3); the first row
/// on a path that passes resolves the subtree below it, scanning every
/// start there exactly against `db` (core::ScanStart, once per start).
/// Sparse mode additionally scans the non-stored starts inside each
/// stored suffix's leading run (D_tw-lb2, Definition 4) and discounts the
/// Theorem-1 pruning bound by (MaxRun-1) * D_base-lb(Q[1], first path
/// symbol) so they are never falsely dismissed.
struct TreeSearchConfig {
  const suffixtree::TreeView* tree = nullptr;

  /// Raw sequences, required in lower-bound modes for verification.
  const seqdb::SequenceDatabase* db = nullptr;

  /// Category intervals; required when exact == false.
  const categorize::Alphabet* alphabet = nullptr;

  /// Symbol -> value decode; required when exact == true.
  const std::vector<Value>* symbol_values = nullptr;

  bool exact = false;
  bool sparse = false;

  /// Theorem-1 branch pruning; disable only for the R_p ablation.
  bool prune = true;

  /// Running lower bound of the exact per-start scans (the endpoint cost
  /// plus LB_Keogh's per-element terms, accumulated as a scan extends):
  /// ends a start before its next O(|Q|) row is built. Exactness is
  /// unaffected (no false dismissals); disable only for the
  /// bench/ablation_lowerbound ablation. No-op in exact mode, which has
  /// no verification pass.
  bool use_lower_bound = true;

  /// Sakoe-Chiba band (0 = unconstrained, the paper's setting).
  Pos band = 0;

  /// Worker threads for one search. 0 = fully serial (the original
  /// single-table DFS, byte-for-byte identical behavior and stats);
  /// >= 1 runs the traversal on the process-wide work-stealing scheduler
  /// (ensured to have at least that many persistent workers), splitting
  /// branch tasks off lazily as idle threads ask for work. Results are
  /// identical to serial for both range and k-NN searches (see
  /// docs/parallel_search.md).
  std::size_t num_threads = 0;

  /// Cooperative cancellation / deadline token; see QueryOptions::cancel.
  const CancelToken* cancel = nullptr;
};

/// Runs the similarity search: every subsequence of the indexed database
/// whose exact (or banded) time warping distance from `query` is
/// <= epsilon. No false dismissals; results are exact matches only.
std::vector<Match> TreeSearch(const TreeSearchConfig& config,
                              std::span<const Value> query, Value epsilon,
                              SearchStats* stats = nullptr);

/// k-nearest-subsequence search (branch-and-bound extension): returns the
/// k subsequences with the smallest time warping distance from `query`,
/// sorted by distance. The traversal runs with a dynamic threshold equal
/// to the current k-th best distance, so the lower bounds prune exactly as
/// in the range search. Ties at the k-th distance are broken
/// deterministically by (seq, start, len), which makes serial and parallel
/// k-NN return exactly the same set.
std::vector<Match> TreeSearchKnn(const TreeSearchConfig& config,
                                 std::span<const Value> query, std::size_t k,
                                 SearchStats* stats = nullptr);

/// One tier of a multi-tier (LSM-style) search: a complete per-tier
/// search configuration — the tier's own tree, database fragment, and
/// symbol tables, all addressed by tier-local sequence ids — plus the
/// offset that rebases the tier's local ids onto the global id space
/// (`global seq = local seq + seq_base`).
struct TierSearchEntry {
  TreeSearchConfig config;
  SeqId seq_base = 0;
};

/// Range search fanned out across index tiers. All tiers share ONE
/// QueryContext: one query envelope (it depends only on the query and the
/// band), one ResultCollector, and — for k-NN — one shrinking epsilon, so
/// a tight match in any tier prunes every other tier. Serial
/// (num_threads == 0) runs the tiers in order; parallel submits one
/// scheduler task per tier, each of which runs its own lazily-splitting
/// parallel traversal (nested fork/join scopes are deadlock-free).
/// Matches carry global sequence ids, and the merged result is
/// byte-identical to searching a monolithic index over the concatenated
/// data: every engine verifies candidates exactly, so per-tier symbol
/// tables (wider category intervals, extended dictionaries) never change
/// the match set. Every tier must agree on the query-shape knobs (exact,
/// sparse, band, prune, use_lower_bound, num_threads, cancel).
std::vector<Match> TierSearch(std::span<const TierSearchEntry> tiers,
                              std::span<const Value> query, Value epsilon,
                              SearchStats* stats = nullptr);

/// k-NN across tiers; see TierSearch. The k-th-best threshold is shared
/// by all tiers through the one collector.
std::vector<Match> TierSearchKnn(std::span<const TierSearchEntry> tiers,
                                 std::span<const Value> query, std::size_t k,
                                 SearchStats* stats = nullptr);

}  // namespace tswarp::core

#endif  // TSWARP_CORE_TREE_SEARCH_H_
