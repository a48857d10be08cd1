#ifndef TSWARP_MULTIVARIATE_GRID_MODEL_H_
#define TSWARP_MULTIVARIATE_GRID_MODEL_H_

#include <span>

#include "common/types.h"
#include "core/match.h"
#include "core/seq_scan.h"
#include "dtw/warping_table.h"
#include "multivariate/grid_alphabet.h"
#include "multivariate/multi_database.h"
#include "multivariate/multi_dtw.h"
#include "multivariate/multi_envelope.h"
#include "suffixtree/tree_view.h"

namespace tswarp::mv {

/// The elements of one multivariate start S[p:] as core::ScanStart reads
/// them: exact rows from the city-block base distance, and the running
/// lower bound's per-element terms (`envelope` may be null: no bound).
/// Shared by GridCellModel and MultiSeqScan.
class MultiSuffix {
 public:
  MultiSuffix(const MultiSequenceDatabase* db, std::span<const Value> query,
              const MultiQueryEnvelope* envelope, SeqId seq, Pos start)
      : db_(db),
        query_(query),
        envelope_(envelope),
        seq_(seq),
        start_(start) {}

  std::size_t size() const { return db_->Length(seq_) - start_; }
  bool has_lb() const { return envelope_ != nullptr; }

  /// The first element meets Q[1] in the path's fixed start cell, so its
  /// term is the exact endpoint cost; a later element at offset k pays at
  /// least the sum over dimensions of its envelope distances (the
  /// per-dimension argument of MultiQueryEnvelope, one element at a time).
  Value ElementLb(std::size_t k) const {
    const std::span<const Value> elem = Element(k);
    if (k == 0) return MultiBaseDistance(QueryElement(0), elem);
    Value sum = 0.0;
    for (std::size_t d = 0; d < elem.size(); ++d) {
      sum += envelope_->envelope(d).ElementLb(k, elem[d]);
    }
    return sum;
  }

  void PushRow(dtw::ScanTable* table, std::size_t k) const {
    const std::span<const Value> elem = Element(k);
    table->PushRowCustom([this, elem](std::size_t x) {
      return MultiBaseDistance(QueryElement(x), elem);
    });
  }

 private:
  std::span<const Value> Element(std::size_t k) const {
    return db_->Element(seq_, start_ + static_cast<Pos>(k));
  }
  std::span<const Value> QueryElement(std::size_t x) const {
    return query_.subspan(x * db_->dim(), db_->dim());
  }

  const MultiSequenceDatabase* db_;
  std::span<const Value> query_;
  const MultiQueryEnvelope* envelope_;
  SeqId seq_;
  Pos start_;
};

/// The multivariate distance model for core::SearchDriver (paper Section 8):
/// rows are grid-cell lower bounds on the city-block base distance, so the
/// first passing row on a path resolves its subtree with exact
/// multivariate scans (core::ScanStart over MultiSuffix), cut by the
/// endpoint and per-dimension envelope running bound and by Theorem 1.
/// The fourth instantiation of the driver, next to
/// core::{ExactModel, CategoryModel, SparseCategoryModel}.
class GridCellModel {
 public:
  static constexpr bool kExactRows = false;
  // Node summaries describe scalar value hulls; grid cells are
  // d-dimensional, so the multivariate index never builds them.
  static constexpr bool kSupportsSummaries = false;

  /// `envelope` may be null (running bound disabled, the ablation
  /// setting). All pointers must outlive the model.
  GridCellModel(const MultiSequenceDatabase* db, const GridAlphabet* grid,
                std::span<const Value> query,
                const MultiQueryEnvelope* envelope)
      : db_(db), grid_(grid), query_(query), envelope_(envelope) {}

  Value FirstRowLb(Symbol s) const {
    return grid_->CellLowerBound(QueryElement(0), s);
  }

  void RowStep(dtw::WarpingTable* table, Symbol s) const {
    table->PushRowCustom([this, s](std::size_t x) {
      return grid_->CellLowerBound(QueryElement(x), s);
    });
  }

  Value OccurrenceFirstLb(const suffixtree::OccurrenceRec& occ) const {
    const Symbol cell = grid_->ToSymbol(db_->Element(occ.seq, occ.pos));
    return grid_->CellLowerBound(QueryElement(0), cell);
  }

  template <typename EpsFn, typename ReportFn>
  void ResolveStart(SeqId seq, Pos start, dtw::ScanTable* table, EpsFn eps,
                    ReportFn report, core::SearchStats* stats) const {
    core::ScanStart(MultiSuffix(db_, query_, envelope_, seq, start), table,
                    /*prune=*/true, eps, report, stats);
  }

 private:
  std::span<const Value> QueryElement(std::size_t x) const {
    return std::span<const Value>(query_.data() + x * db_->dim(),
                                  db_->dim());
  }

  const MultiSequenceDatabase* db_;
  const GridAlphabet* grid_;
  std::span<const Value> query_;
  const MultiQueryEnvelope* envelope_;
};

}  // namespace tswarp::mv

#endif  // TSWARP_MULTIVARIATE_GRID_MODEL_H_
