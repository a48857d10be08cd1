#include "core/tree_search.h"

#include <algorithm>
#include <memory>
#include <span>
#include <vector>

#include "common/logging.h"
#include "core/distance_models.h"
#include "core/search_driver.h"
#include "dtw/envelope.h"

namespace tswarp::core {
namespace {

void ValidateConfig(const TreeSearchConfig& config,
                    std::span<const Value> query) {
  TSW_CHECK(config.tree != nullptr);
  TSW_CHECK(!query.empty());
  TSW_CHECK(!(config.sparse && config.band != 0))
      << "banded search is unsupported on sparse indexes: the D_tw-lb2 "
         "shift argument does not hold once the band moves with the "
         "dropped leading symbols (build a dense ST_C index instead)";
  if (config.exact) {
    TSW_CHECK(config.symbol_values != nullptr)
        << "exact mode needs the symbol dictionary";
    TSW_CHECK(!config.sparse) << "sparse trees require lower-bound mode";
  } else {
    TSW_CHECK(config.alphabet != nullptr)
        << "lower-bound mode needs the category alphabet";
    TSW_CHECK(config.db != nullptr)
        << "lower-bound mode needs the raw sequences for verification";
  }
}

DriverConfig MakeDriverConfig(const TreeSearchConfig& config,
                              std::span<const Value> query) {
  DriverConfig driver;
  driver.tree = config.tree;
  driver.query_length = query.size();
  driver.query = query;
  driver.sparse = config.sparse;
  driver.prune = config.prune;
  driver.band = config.band;
  driver.num_threads = config.num_threads;
  driver.cancel = config.cancel;
  if (config.db != nullptr) {
    // DFS depth is bounded by the longest suffix in the tree.
    std::size_t max_len = 0;
    for (SeqId id = 0; id < config.db->size(); ++id) {
      max_len = std::max(max_len, config.db->sequence(id).size());
    }
    driver.depth_hint = max_len;
  }
  return driver;
}

/// Instantiates the right distance model for `config` and runs the shared
/// DFS kernel on it (see search_driver.h). The three paper modes map to
/// the three univariate models of distance_models.h.
std::vector<Match> RunSearch(const TreeSearchConfig& config,
                             std::span<const Value> query, Value epsilon,
                             std::size_t knn_k, SearchStats* stats) {
  ValidateConfig(config, query);
  const DriverConfig driver = MakeDriverConfig(config, query);
  QueryContext ctx(epsilon, knn_k);

  if (config.exact) {
    const ExactModel model(query, config.symbol_values);
    return RunSearchDriver(driver, model, &ctx, stats);
  }
  // The envelope depends only on (query, band): build it once and share
  // it read-only across workers. Exact mode verifies nothing, so no scan
  // ever consults it.
  if (config.use_lower_bound) {
    ctx.envelope =
        std::make_unique<dtw::QueryEnvelope>(query, config.band);
  }
  if (config.sparse) {
    const SparseCategoryModel model(query, config.alphabet, config.db,
                                    ctx.envelope.get());
    return RunSearchDriver(driver, model, &ctx, stats);
  }
  const CategoryModel model(query, config.alphabet, config.db,
                            ctx.envelope.get());
  return RunSearchDriver(driver, model, &ctx, stats);
}

/// Runs one tier's traversal into the shared context, draining its
/// counters into `sink` (written by this call only — safe when tiers run
/// concurrently).
void RunTierInto(const TreeSearchConfig& config, const DriverConfig& driver,
                 std::span<const Value> query, QueryContext* ctx,
                 SearchStats* sink) {
  if (config.exact) {
    const ExactModel model(query, config.symbol_values);
    SearchDriver<ExactModel>(driver, model).RunInto(ctx, sink);
  } else if (config.sparse) {
    const SparseCategoryModel model(query, config.alphabet, config.db,
                                    ctx->envelope.get());
    SearchDriver<SparseCategoryModel>(driver, model).RunInto(ctx, sink);
  } else {
    const CategoryModel model(query, config.alphabet, config.db,
                              ctx->envelope.get());
    SearchDriver<CategoryModel>(driver, model).RunInto(ctx, sink);
  }
}

std::vector<Match> RunTiered(std::span<const TierSearchEntry> tiers,
                             std::span<const Value> query, Value epsilon,
                             std::size_t knn_k, SearchStats* stats) {
  if (tiers.empty()) {
    if (stats != nullptr) *stats = SearchStats{};
    return {};
  }
  const TreeSearchConfig& lead = tiers.front().config;
  std::vector<DriverConfig> drivers;
  drivers.reserve(tiers.size());
  std::size_t depth_hint = 0;
  for (const TierSearchEntry& tier : tiers) {
    ValidateConfig(tier.config, query);
    // Cross-tier matches merge in one collector under one epsilon; that
    // is only meaningful when every tier answers the same question.
    TSW_CHECK(tier.config.exact == lead.exact &&
              tier.config.sparse == lead.sparse &&
              tier.config.prune == lead.prune &&
              tier.config.use_lower_bound == lead.use_lower_bound &&
              tier.config.band == lead.band &&
              tier.config.num_threads == lead.num_threads &&
              tier.config.cancel == lead.cancel)
        << "tiers of one search must share the query-shape knobs";
    drivers.push_back(MakeDriverConfig(tier.config, query));
    drivers.back().seq_base = tier.seq_base;
    depth_hint = std::max(depth_hint, drivers.back().depth_hint);
  }
  // One shared depth hint: the per-thread arena cache is keyed on the
  // table shape, so tiers of different depths would otherwise thrash it.
  for (DriverConfig& d : drivers) d.depth_hint = depth_hint;

  QueryContext ctx(epsilon, knn_k);
  if (!lead.exact && lead.use_lower_bound) {
    ctx.envelope = std::make_unique<dtw::QueryEnvelope>(query, lead.band);
  }

  if (lead.num_threads == 0) {
    // Serial: tiers in order, one table, the k-NN threshold tightened by
    // each tier pruning the next.
    for (std::size_t i = 0; i < tiers.size(); ++i) {
      RunTierInto(tiers[i].config, drivers[i], query, &ctx, &ctx.stats);
    }
  } else {
    // Parallel: one task per tier on the process-wide scheduler; each
    // tier's traversal lazily splits further when threads go idle
    // (nested scopes are deadlock-free — Wait() helps). Per-tier stats
    // sinks keep the drains race-free; merged after the join.
    TaskScheduler::Get().EnsureWorkers(lead.num_threads);
    std::vector<SearchStats> tier_stats(tiers.size());
    TaskScope scope;
    for (std::size_t i = 0; i < tiers.size(); ++i) {
      scope.Submit([&, i] {
        RunTierInto(tiers[i].config, drivers[i], query, &ctx,
                    &tier_stats[i]);
      });
    }
    scope.Wait();  // Rethrows the first tier exception, if any.
    for (const SearchStats& s : tier_stats) ctx.stats.Merge(s);
    ctx.stats.tasks_executed += scope.tasks_executed();
    ctx.stats.tasks_stolen += scope.tasks_stolen();
  }

  std::vector<Match> answers = ctx.collector.Take();
  ctx.stats.answers = answers.size();
  if (stats != nullptr) *stats = ctx.stats;
  return answers;
}

}  // namespace

std::vector<Match> TreeSearch(const TreeSearchConfig& config,
                              std::span<const Value> query, Value epsilon,
                              SearchStats* stats) {
  return RunSearch(config, query, epsilon, /*knn_k=*/0, stats);
}

std::vector<Match> TreeSearchKnn(const TreeSearchConfig& config,
                                 std::span<const Value> query, std::size_t k,
                                 SearchStats* stats) {
  if (k == 0) {
    if (stats != nullptr) *stats = SearchStats{};
    return {};
  }
  return RunSearch(config, query, /*epsilon=*/0.0, k, stats);
}

std::vector<Match> TierSearch(std::span<const TierSearchEntry> tiers,
                              std::span<const Value> query, Value epsilon,
                              SearchStats* stats) {
  return RunTiered(tiers, query, epsilon, /*knn_k=*/0, stats);
}

std::vector<Match> TierSearchKnn(std::span<const TierSearchEntry> tiers,
                                 std::span<const Value> query, std::size_t k,
                                 SearchStats* stats) {
  if (k == 0) {
    if (stats != nullptr) *stats = SearchStats{};
    return {};
  }
  return RunTiered(tiers, query, /*epsilon=*/0.0, k, stats);
}

}  // namespace tswarp::core
