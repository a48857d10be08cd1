#include "multivariate/multi_index.h"

#include <algorithm>
#include <optional>

#include "common/logging.h"
#include "core/search_driver.h"
#include "dtw/warping_table.h"
#include "multivariate/grid_model.h"
#include "multivariate/multi_dtw.h"
#include "multivariate/multi_envelope.h"

namespace tswarp::mv {
namespace {

using core::Match;
using core::MatchLess;
using core::SearchStats;

/// Shared body of Search / SearchKnn: instantiate the grid-cell model and
/// run the common DFS kernel (core::SearchDriver). The per-dimension
/// envelope set lives here for the query's duration, mirroring
/// QueryContext's univariate envelope slot.
std::vector<Match> RunDriver(const MultiSequenceDatabase& db,
                             const GridAlphabet& grid,
                             const suffixtree::TreeView& tree, bool sparse,
                             std::span<const Value> query,
                             std::size_t query_len, Value epsilon,
                             std::size_t knn_k,
                             const core::QueryOptions& options,
                             SearchStats* stats) {
  TSW_CHECK(query_len > 0 && query.size() == query_len * db.dim());
  TSW_CHECK(options.band <= query_len)
      << "band wider than the query has no effect and is almost certainly "
         "a misconfiguration";

  core::DriverConfig driver;
  driver.tree = &tree;
  driver.query_length = query_len;
  // driver.query stays empty: multivariate base distances are not
  // derivable from a Value span (GridCellModel pushes custom rows).
  driver.sparse = sparse;
  driver.prune = options.prune;
  driver.band = options.band;
  driver.num_threads = options.num_threads;
  driver.cancel = options.cancel;
  std::size_t max_len = 0;
  for (SeqId id = 0; id < db.size(); ++id) {
    max_len = std::max<std::size_t>(max_len, db.Length(id));
  }
  driver.depth_hint = max_len;

  core::QueryContext ctx(epsilon, knn_k);
  std::optional<MultiQueryEnvelope> envelope;
  if (options.use_lower_bound) {
    envelope.emplace(query, query_len, db.dim(), options.band);
  }
  const GridCellModel model(&db, &grid, query,
                            envelope ? &*envelope : nullptr);
  return core::RunSearchDriver(driver, model, &ctx, stats);
}

}  // namespace

StatusOr<MultiIndex> MultiIndex::Build(const MultiSequenceDatabase* db,
                                       const MultiIndexOptions& options) {
  if (db == nullptr || db->size() == 0) {
    return Status::InvalidArgument("null or empty database");
  }
  MultiIndex index;
  index.db_ = db;
  index.options_ = options;
  TSW_ASSIGN_OR_RETURN(
      GridAlphabet grid,
      GridAlphabet::Build(*db, options.method, options.categories_per_dim,
                          options.seed));
  std::vector<std::vector<Symbol>> converted = ConvertMultiDatabase(*db,
                                                                    &grid);
  index.grid_ = std::move(grid);
  index.symbols_ = suffixtree::SymbolDatabase(std::move(converted));
  suffixtree::BuildOptions build;
  build.sparse = options.sparse;
  index.tree_ = suffixtree::BuildSuffixTree(index.symbols_, build);
  return index;
}

std::vector<Match> MultiIndex::Search(std::span<const Value> query,
                                      std::size_t query_len, Value epsilon,
                                      const core::QueryOptions& query_options,
                                      SearchStats* stats) const {
  return RunDriver(*db_, *grid_, *tree_, options_.sparse, query, query_len,
                   epsilon, /*knn_k=*/0, query_options, stats);
}

std::vector<Match> MultiIndex::SearchKnn(
    std::span<const Value> query, std::size_t query_len, std::size_t k,
    const core::QueryOptions& query_options, SearchStats* stats) const {
  if (k == 0) {
    if (stats != nullptr) *stats = SearchStats{};
    return {};
  }
  return RunDriver(*db_, *grid_, *tree_, options_.sparse, query, query_len,
                   /*epsilon=*/0.0, k, query_options, stats);
}

std::vector<Match> MultiSeqScan(const MultiSequenceDatabase& db,
                                std::span<const Value> query,
                                std::size_t query_len, Value epsilon,
                                Pos band) {
  TSW_CHECK(query_len > 0 && query.size() == query_len * db.dim());
  std::vector<Match> out;
  SearchStats unused;
  dtw::ScanTable table(query_len, band);
  for (SeqId id = 0; id < db.size(); ++id) {
    for (Pos p = 0; p < db.Length(id); ++p) {
      core::ScanStart(
          MultiSuffix(&db, query, /*envelope=*/nullptr, id, p), &table,
          /*prune=*/true, [epsilon] { return epsilon; },
          [&](Pos len, Value dist) { out.push_back({id, p, len, dist}); },
          &unused);
    }
  }
  std::sort(out.begin(), out.end(), MatchLess);
  return out;
}

}  // namespace tswarp::mv
