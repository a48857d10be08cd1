#ifndef TSWARP_CORE_SEQ_SCAN_H_
#define TSWARP_CORE_SEQ_SCAN_H_

#include <cstddef>
#include <span>
#include <vector>

#include "common/types.h"
#include "core/match.h"
#include "dtw/base.h"
#include "dtw/envelope.h"
#include "dtw/warping_table.h"
#include "seqdb/sequence_database.h"

namespace tswarp::core {

/// Options for the sequential-scan baseline.
struct SeqScanOptions {
  /// Apply Theorem 1 to stop extending a suffix once the row minimum
  /// exceeds epsilon. Disable only for the pruning ablation.
  bool prune = true;

  /// Running lower bound (the endpoint cost plus LB_Keogh's terms,
  /// accumulated element by element; see ScanStart): a suffix extension
  /// whose accumulated bound exceeds epsilon is cut O(|Q|) earlier than
  /// Theorem 1 can cut it, without building the row at all. Answers are
  /// identical either way; disable only for the bench/ablation_lowerbound
  /// ablation.
  bool use_lower_bound = true;

  /// Sakoe-Chiba band (0 = unconstrained warping, the paper's setting).
  Pos band = 0;

  /// Worker threads. 0 = serial. >= 1 fans the (independent) sequences out
  /// as one task each on the process-wide work-stealing scheduler; answers
  /// and stats are identical to serial (every per-suffix computation is
  /// unchanged, only the execution order differs and Take() re-sorts).
  std::size_t num_threads = 0;
};

/// The elements of one univariate start S[p:] as ScanStart reads them:
/// exact rows from the raw values, and the running lower bound's per-element
/// terms. `env` may be null (no running bound).
class ValueSuffix {
 public:
  ValueSuffix(std::span<const Value> query, std::span<const Value> suffix,
              const dtw::QueryEnvelope* env)
      : query_(query), suffix_(suffix), env_(env) {}

  std::size_t size() const { return suffix_.size(); }
  bool has_lb() const { return env_ != nullptr; }

  /// Lower bound on what element k adds to any warping path's cost. The
  /// first element is the path's fixed start cell (1, 1), so its term is
  /// the exact D_base(Q[1], S[p]) — the start's endpoint bound; later
  /// elements pay at least their envelope distance (LB_Keogh's term).
  Value ElementLb(std::size_t k) const {
    return k == 0 ? dtw::BaseDistance(query_.front(), suffix_.front())
                  : env_->ElementLb(k, suffix_[k]);
  }

  void PushRow(dtw::ScanTable* table, std::size_t k) const {
    table->PushRowValue(suffix_[k]);
  }

 private:
  std::span<const Value> query_;
  std::span<const Value> suffix_;
  const dtw::QueryEnvelope* env_;
};

/// Exact rows one ScanStart call pushed, and whether Theorem 1 ended it.
/// Left to the caller: SeqScan adds them to rows_pushed / branches_pruned,
/// while the tree searches keep those counters for their filter rows.
struct StartScanWork {
  std::uint64_t rows = 0;
  bool theorem1_cut = false;
};

/// The per-start exact scan: extends one start S[p:] element by element in
/// `table` and reports every length whose exact distance is <= eps(),
/// through report(len, distance). This is SeqScan's inner loop and the
/// tree searches' only verification step (core::SearchDriver resolves a
/// subtree by calling it once per start below the edge), so every
/// engine computes each distance with the same recurrence, bit for bit.
///
/// The scan stops early in two ways, neither of which can drop an answer:
///   * the running lower bound (when `source.has_lb()`): the sum of the
///     element terms seen so far lower-bounds the distance of every longer
///     prefix, so once it exceeds LbPruneThreshold(eps) the start is done
///     — before the element's O(|Q|) row is built. The first term is the
///     endpoint bound, so a start whose first element alone is too far
///     builds no row at all;
///   * Theorem 1 (when `prune`): RowMin() > eps ends it after a row.
/// eps() is re-read every element, so a shrinking k-NN threshold tightens
/// both cuts as the scan goes.
///
/// Source concept: size() elements available from the start; has_lb();
/// ElementLb(k) (only called when has_lb()); PushRow(table, k).
///
/// Counters, all per start: candidates (1), lb_invocations (1 when
/// has_lb()), endpoint_rejections (cut by the first element's term),
/// lb_pruned (cut by the running bound, endpoint cuts included), and
/// exact_dtw_calls (1 when at least one exact row was built).
template <typename Source, typename EpsFn, typename ReportFn>
StartScanWork ScanStart(const Source& source, dtw::ScanTable* table,
                        bool prune, EpsFn eps, ReportFn report,
                        SearchStats* stats) {
  StartScanWork work;
  const std::size_t n = source.size();
  const bool use_lb = source.has_lb();
  ++stats->candidates;
  if (use_lb) ++stats->lb_invocations;
  table->Reset();
  Value running_lb = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    Value e = eps();
    if (use_lb) {
      // Slackened threshold: see dtw::LbPruneThreshold.
      running_lb += source.ElementLb(k);
      if (running_lb > dtw::LbPruneThreshold(e)) {
        ++stats->lb_pruned;
        if (k == 0) ++stats->endpoint_rejections;
        break;
      }
    }
    if (k == 0) ++stats->exact_dtw_calls;
    source.PushRow(table, k);
    ++work.rows;
    const Value dist = table->LastColumn();
    if (dist <= e) {
      report(static_cast<Pos>(k + 1), dist);
      e = eps();
    }
    if (prune && table->RowMin() > e) {
      work.theorem1_cut = true;
      break;
    }
  }
  return work;
}

/// Sequential scanning (paper Section 4.3): builds one cumulative distance
/// table per suffix of every sequence and reports every subsequence whose
/// time warping distance from `query` is <= epsilon. O(M L^2 |Q|), the
/// baseline of Tables 2-3 and Figures 4-5.
std::vector<Match> SeqScan(const seqdb::SequenceDatabase& db,
                           std::span<const Value> query, Value epsilon,
                           const SeqScanOptions& options = {},
                           SearchStats* stats = nullptr);

}  // namespace tswarp::core

#endif  // TSWARP_CORE_SEQ_SCAN_H_
