#ifndef TSWARP_MULTIVARIATE_MULTI_INDEX_H_
#define TSWARP_MULTIVARIATE_MULTI_INDEX_H_

#include <optional>
#include <span>
#include <vector>

#include "categorize/categorizer.h"
#include "common/status.h"
#include "common/types.h"
#include "core/index.h"
#include "core/match.h"
#include "multivariate/grid_alphabet.h"
#include "multivariate/multi_database.h"
#include "suffixtree/suffix_tree.h"
#include "suffixtree/symbol_database.h"

namespace tswarp::mv {

/// Build options for the multivariate index.
struct MultiIndexOptions {
  categorize::Method method = categorize::Method::kMaxEntropy;
  std::size_t categories_per_dim = 8;
  bool sparse = true;
  std::uint64_t seed = 1;
};

/// Multivariate subsequence index (paper Section 8): elements are
/// categorized into grid cells, a (sparse) suffix tree is built over the
/// cell symbols, and queries run on core::SearchDriver with the
/// GridCellModel — grid-cell lower-bound filtering, then one exact
/// multivariate scan per start below each passing row, cut by the
/// per-dimension envelope running bound. No false dismissals. Searches take the same core::QueryOptions
/// as the univariate Index (band, pruning/lower-bound ablations,
/// num_threads), with identical semantics: parallel results are
/// bit-identical to serial, and bands are rejected on sparse indexes.
class MultiIndex {
 public:
  /// `db` must outlive the index.
  static StatusOr<MultiIndex> Build(const MultiSequenceDatabase* db,
                                    const MultiIndexOptions& options);

  /// All subsequences whose multivariate D_tw from the flattened query
  /// (`query_len` elements) is <= epsilon, sorted by (seq, start, len).
  std::vector<core::Match> Search(std::span<const Value> query,
                                  std::size_t query_len, Value epsilon,
                                  const core::QueryOptions& query_options = {},
                                  core::SearchStats* stats = nullptr) const;

  /// The k subsequences nearest to the query under the multivariate D_tw,
  /// sorted by distance (branch-and-bound over the same filter; ties at
  /// the k-th distance are broken arbitrarily).
  std::vector<core::Match> SearchKnn(
      std::span<const Value> query, std::size_t query_len, std::size_t k,
      const core::QueryOptions& query_options = {},
      core::SearchStats* stats = nullptr) const;

  std::uint64_t IndexBytes() const { return tree_->SizeBytes(); }
  const GridAlphabet& grid() const { return *grid_; }
  const MultiIndexOptions& options() const { return options_; }

 private:
  MultiIndex() = default;

  const MultiSequenceDatabase* db_ = nullptr;
  MultiIndexOptions options_;
  std::optional<GridAlphabet> grid_;
  suffixtree::SymbolDatabase symbols_;
  std::optional<suffixtree::SuffixTree> tree_;
};

/// Sequential-scan baseline for multivariate queries (ground truth), under
/// an optional Sakoe-Chiba band.
std::vector<core::Match> MultiSeqScan(const MultiSequenceDatabase& db,
                                      std::span<const Value> query,
                                      std::size_t query_len, Value epsilon,
                                      Pos band = 0);

}  // namespace tswarp::mv

#endif  // TSWARP_MULTIVARIATE_MULTI_INDEX_H_
