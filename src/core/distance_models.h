#ifndef TSWARP_CORE_DISTANCE_MODELS_H_
#define TSWARP_CORE_DISTANCE_MODELS_H_

#include <span>
#include <vector>

#include "categorize/alphabet.h"
#include "common/types.h"
#include "core/match.h"
#include "core/seq_scan.h"
#include "dtw/base.h"
#include "dtw/dtw.h"
#include "dtw/envelope.h"
#include "dtw/warping_table.h"
#include "seqdb/sequence_database.h"
#include "suffixtree/tree_view.h"

namespace tswarp::core {

/// The univariate distance models of the paper, plugged into
/// core::SearchDriver (see search_driver.h for the concept):
///
///   SimSearch-ST     ExactModel     rows are exact D_tw
///   SimSearch-ST_C   CategoryModel  D_tw-lb interval rows (Def. 3)
///   SimSearch-SST_C  CategoryModel  + D_tw-lb2 recovery  (Def. 4), which
///                                   SearchDriver applies when
///                                   DriverConfig::sparse is set
///
/// The multivariate grid-cell model (Section 8) lives with its index in
/// src/multivariate.

/// Exact symbol values (dictionary tree): every row is built from the
/// decoded element value, so LastColumn() is already the exact D_tw and
/// matches need no verification pass.
class ExactModel {
 public:
  static constexpr bool kExactRows = true;

  ExactModel(std::span<const Value> query,
             const std::vector<Value>* symbol_values)
      : query_(query), symbol_values_(symbol_values) {}

  Value FirstRowLb(Symbol) const { return 0.0; }

  /// The driver binds the query span to the table (DriverConfig::query),
  /// so the typed SIMD row step applies directly.
  void RowStep(dtw::WarpingTable* table, Symbol s) const {
    table->PushRowValue((*symbol_values_)[static_cast<std::size_t>(s)]);
  }

 private:
  std::span<const Value> query_;
  const std::vector<Value>* symbol_values_;
};

/// Category intervals (D_tw-lb, Definition 3): rows are interval lower
/// bounds, so the first row on a path that passes the filter hands every
/// start below it to ResolveStart — the exact per-start scan SeqScan runs
/// (core::ScanStart), cut by the endpoint and envelope running bound (when
/// the envelope is active) and by Theorem 1. Every cut is a true lower
/// bound, so no answer within epsilon is ever dismissed.
class CategoryModel {
 public:
  static constexpr bool kExactRows = false;

  /// `envelope` may be null (running bound disabled, the ablation setting).
  CategoryModel(std::span<const Value> query,
                const categorize::Alphabet* alphabet,
                const seqdb::SequenceDatabase* db,
                const dtw::QueryEnvelope* envelope)
      : query_(query), alphabet_(alphabet), db_(db), envelope_(envelope) {}

  Value FirstRowLb(Symbol s) const {
    const dtw::Interval iv = alphabet_->ToInterval(s);
    return dtw::BaseDistanceLb(query_.front(), iv.lb, iv.ub);
  }

  void RowStep(dtw::WarpingTable* table, Symbol s) const {
    const dtw::Interval iv = alphabet_->ToInterval(s);
    table->PushRowInterval(iv.lb, iv.ub);
  }

  Value OccurrenceFirstLb(const suffixtree::OccurrenceRec& occ) const {
    // The leading symbol of the stored suffix is the path's first symbol;
    // recompute from the raw value's category for robustness.
    const Value v = db_->sequence(occ.seq)[occ.pos];
    const dtw::Interval iv = alphabet_->ToInterval(alphabet_->ToSymbol(v));
    return dtw::BaseDistanceLb(query_.front(), iv.lb, iv.ub);
  }

  /// Scans the raw start S_seq[start:] exactly, reporting every length
  /// within eps(). The table carries the search's band.
  template <typename EpsFn, typename ReportFn>
  void ResolveStart(SeqId seq, Pos start, dtw::ScanTable* table, EpsFn eps,
                    ReportFn report, SearchStats* stats) const {
    const std::span<const Value> s = db_->sequence(seq);
    stats->scan_rows +=
        ScanStart(ValueSuffix(query_, s.subspan(start), envelope_), table,
                  /*prune=*/true, eps, report, stats)
            .rows;
  }

 private:
  std::span<const Value> query_;
  const categorize::Alphabet* alphabet_;
  const seqdb::SequenceDatabase* db_;
  const dtw::QueryEnvelope* envelope_;
};

}  // namespace tswarp::core

#endif  // TSWARP_CORE_DISTANCE_MODELS_H_
