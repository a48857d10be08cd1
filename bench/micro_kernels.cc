// Micro benchmarks of the DTW kernels and the suffix-tree construction /
// merge substrates (google-benchmark).
//
// Extra flags (stripped before google-benchmark sees argv):
//   --json   also write BENCH_micro_kernels.json (see report_json.h); the
//            active SIMD backend is recorded, so baselines taken under
//            TSWARP_SIMD=scalar and the host's best backend are directly
//            diffable.

#include <algorithm>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "report_json.h"

#include "categorize/categorizer.h"
#include "core/dictionary.h"
#include "core/index.h"
#include "core/match.h"
#include "core/seq_scan.h"
#include "core/tier.h"
#include "common/random.h"
#include "datagen/generators.h"
#include "dtw/alignment.h"
#include "dtw/base.h"
#include "dtw/dtw.h"
#include "dtw/envelope.h"
#include "dtw/warping_table.h"
#include "seqdb/sequence_database.h"
#include "suffixtree/merge.h"
#include "suffixtree/suffix_tree.h"
#include "suffixtree/tree_view.h"
#include "suffixtree/symbol_database.h"

namespace tswarp {
namespace {

std::vector<Value> RandomSequence(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Value> v;
  v.reserve(n);
  Value x = rng.Uniform(20, 80);
  for (std::size_t i = 0; i < n; ++i) {
    x += rng.Gaussian(0, 1);
    v.push_back(x);
  }
  return v;
}

void BM_DtwDistance(benchmark::State& state) {
  const auto a = RandomSequence(static_cast<std::size_t>(state.range(0)), 1);
  const auto b = RandomSequence(static_cast<std::size_t>(state.range(0)), 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dtw::DtwDistance(a, b));
  }
  state.SetItemsProcessed(state.iterations() *
                          state.range(0) * state.range(0));
}
BENCHMARK(BM_DtwDistance)->Arg(16)->Arg(64)->Arg(256);

void BM_DtwWithinThreshold(benchmark::State& state) {
  const auto a = RandomSequence(static_cast<std::size_t>(state.range(0)), 1);
  const auto b = RandomSequence(static_cast<std::size_t>(state.range(0)), 2);
  const Value eps = static_cast<Value>(state.range(1));
  for (auto _ : state) {
    Value d = 0;
    benchmark::DoNotOptimize(dtw::DtwWithinThreshold(a, b, eps, &d));
  }
}
BENCHMARK(BM_DtwWithinThreshold)
    ->Args({64, 5})
    ->Args({64, 50})
    ->Args({256, 5})
    ->Args({256, 50});

void BM_WarpingTablePushRow(benchmark::State& state) {
  const auto q = RandomSequence(static_cast<std::size_t>(state.range(0)), 3);
  // Values are pre-generated so the loop times PushRowValue, not the RNG.
  Rng rng(4);
  std::vector<Value> values(512);
  for (Value& v : values) v = rng.Uniform(0, 100);
  dtw::WarpingTable table(q);
  std::size_t i = 0;
  for (auto _ : state) {
    table.PushRowValue(values[i]);
    i = i + 1 == values.size() ? 0 : i + 1;
    if (table.NumRows() > 512) table.PopRows(512);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_WarpingTablePushRow)->Arg(20)->Arg(100);

suffixtree::SymbolDatabase CategorizedStocks(std::size_t num_sequences,
                                             std::size_t num_categories) {
  datagen::StockOptions opt;
  opt.num_sequences = num_sequences;
  seqdb::SequenceDatabase db = datagen::GenerateStocks(opt);
  const std::vector<Value> values = categorize::CollectValues(db);
  auto alphabet =
      categorize::BuildMaxEntropy(values, num_categories).value();
  categorize::CategorizedDatabase converted =
      categorize::ConvertDatabase(db, &alphabet);
  return suffixtree::SymbolDatabase(std::move(converted.sequences));
}

void BuildTreeLoop(benchmark::State& state,
                   const suffixtree::SymbolDatabase& symbols) {
  for (auto _ : state) {
    suffixtree::SuffixTree tree = suffixtree::BuildSuffixTree(symbols);
    benchmark::DoNotOptimize(tree.NumNodes());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(symbols.TotalSymbols()));
}

void BM_SuffixTreeBuild(benchmark::State& state) {
  BuildTreeLoop(state, CategorizedStocks(
                           static_cast<std::size_t>(state.range(0)),
                           static_cast<std::size_t>(state.range(1))));
}
BENCHMARK(BM_SuffixTreeBuild)->Args({50, 20})->Args({50, 120})->Args({200, 20});

// Random walks under ST_C(12): the tswarpd ingest workload's base tree.
void BM_SuffixTreeBuildWalk(benchmark::State& state) {
  datagen::RandomWalkOptions walk;
  walk.num_sequences = 1000;
  walk.avg_length = 120;
  walk.length_jitter = 20;
  const seqdb::SequenceDatabase db = datagen::GenerateRandomWalks(walk);
  auto alphabet = categorize::BuildMaxEntropy(categorize::CollectValues(db),
                                              /*num_categories=*/12)
                      .value();
  BuildTreeLoop(state, suffixtree::SymbolDatabase(std::move(
                           categorize::ConvertDatabase(db, &alphabet)
                               .sequences)));
}
BENCHMARK(BM_SuffixTreeBuildWalk)->Name("BM_SuffixTreeBuild/walk_stc12");

// Plain (dictionary) ST over i.i.d. values on 256 levels: the root and
// the level below it have up to 256 children each, the shape that needs
// the builder's wide-node index.
void BM_SuffixTreeBuildDictionary(benchmark::State& state) {
  Rng rng(256);
  seqdb::SequenceDatabase db;
  for (int i = 0; i < 200; ++i) {
    std::vector<Value> seq(200);
    for (Value& v : seq) v = static_cast<Value>(rng.UniformInt(0, 255));
    db.Add(std::move(seq));
  }
  suffixtree::SymbolDatabase symbols;
  std::vector<Value> symbol_values;
  core::DictionaryEncode(db, &symbols, &symbol_values);
  BuildTreeLoop(state, symbols);
}
BENCHMARK(BM_SuffixTreeBuildDictionary)->Name("BM_SuffixTreeBuild/st_dict256");

void BM_SuffixTreeMerge(benchmark::State& state) {
  const suffixtree::SymbolDatabase a = CategorizedStocks(
      static_cast<std::size_t>(state.range(0)), 40);
  const suffixtree::SymbolDatabase b = CategorizedStocks(
      static_cast<std::size_t>(state.range(0)), 40);
  const suffixtree::SuffixTree ta = suffixtree::BuildSuffixTree(a);
  const suffixtree::SuffixTree tb = suffixtree::BuildSuffixTree(b);
  for (auto _ : state) {
    suffixtree::SuffixTree out;
    suffixtree::MergeTrees(ta, tb, &out);
    benchmark::DoNotOptimize(out.NumNodes());
  }
}
BENCHMARK(BM_SuffixTreeMerge)->Arg(20)->Arg(50);


void BM_DtwLowerBound(benchmark::State& state) {
  Rng rng(5);
  const auto q = RandomSequence(static_cast<std::size_t>(state.range(0)), 1);
  std::vector<dtw::Interval> cs;
  for (int i = 0; i < state.range(0); ++i) {
    const Value v = rng.Uniform(20, 80);
    cs.push_back({v - 1.0, v + 1.0});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(dtw::DtwLowerBound(q, cs));
  }
}
BENCHMARK(BM_DtwLowerBound)->Arg(20)->Arg(100);

// --- Envelope lower-bound cascade ---------------------------------------
// Cost of building a query envelope, plus the prune rate the per-start
// scan's running lower bound (endpoint cost + envelope terms) achieves on
// random-walk starts at a given epsilon.

void BM_BuildEnvelope(benchmark::State& state) {
  const auto q = RandomSequence(static_cast<std::size_t>(state.range(0)), 1);
  const auto band = static_cast<Pos>(state.range(1));
  for (auto _ : state) {
    dtw::QueryEnvelope env(q, band);
    benchmark::DoNotOptimize(env.reach());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BuildEnvelope)
    ->Args({20, 0})
    ->Args({20, 5})
    ->Args({100, 0})
    ->Args({100, 10});

void BM_LbCascadePruneRate(benchmark::State& state) {
  // Scans `kCandidates` random-walk starts against one query with
  // core::ScanStart; the "pruned" counter is the starts the running bound
  // ended, the "exact" counter the starts that built an exact row.
  constexpr int kCandidates = 256;
  const auto q = RandomSequence(20, 1);
  const dtw::QueryEnvelope env(q, 0);
  std::vector<std::vector<Value>> candidates;
  for (int i = 0; i < kCandidates; ++i) {
    candidates.push_back(
        RandomSequence(10 + static_cast<std::size_t>(i) % 30,
                       static_cast<std::uint64_t>(i) + 2));
  }
  const Value eps = static_cast<Value>(state.range(0));
  dtw::ScanTable table(q, 0);
  core::SearchStats stats;
  for (auto _ : state) {
    for (const auto& s : candidates) {
      core::ScanStart(
          core::ValueSuffix(q, s, &env), &table, /*prune=*/true,
          [eps] { return eps; },
          [](Pos len, Value d) { benchmark::DoNotOptimize(len + d); },
          &stats);
    }
  }
  state.counters["pruned"] =
      benchmark::Counter(static_cast<double>(stats.lb_pruned),
                         benchmark::Counter::kAvgIterations);
  state.counters["exact"] =
      benchmark::Counter(static_cast<double>(stats.exact_dtw_calls),
                         benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_LbCascadePruneRate)->Arg(5)->Arg(20)->Arg(80);

void BM_DtwAlign(benchmark::State& state) {
  const auto a = RandomSequence(static_cast<std::size_t>(state.range(0)), 8);
  const auto b = RandomSequence(static_cast<std::size_t>(state.range(0)), 9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dtw::DtwAlign(a, b).distance);
  }
}
BENCHMARK(BM_DtwAlign)->Arg(32)->Arg(128);

// --- Categorized tree search through the shared driver -----------------
// One dense ST_C range search (core::SearchTiers over one tier, i.e.
// core::SearchDriver<CategoryModel>) on a fixed index / query / epsilon: interval rows to the first passing row
// on each path, then one exact scan per start below it. The `lb` arg
// toggles the running lower bound of those scans.

struct SearchFixture {
  SearchFixture()
      : db(datagen::GenerateStocks(StockOpts())),
        tier(std::make_shared<core::Tier>()) {
    categorize::Alphabet alphabet =
        categorize::BuildMaxEntropy(categorize::CollectValues(db),
                                    /*num_categories=*/32)
            .value();
    const suffixtree::SymbolDatabase symbols(
        std::move(categorize::ConvertDatabase(db, &alphabet).sequences));
    tier->db = &db;
    tier->alphabet = std::move(alphabet);
    tier->memory_tree = suffixtree::BuildSuffixTree(symbols);
    // A subsequence of the data, so the search does real emission work.
    const std::span<const Value> s = db.Subsequence(0, 10, 12);
    query.assign(s.begin(), s.end());
  }

  static datagen::StockOptions StockOpts() {
    datagen::StockOptions opt;
    opt.num_sequences = 40;
    return opt;
  }

  seqdb::SequenceDatabase db;
  std::shared_ptr<core::Tier> tier;
  std::vector<Value> query;
};

const SearchFixture& SharedSearchFixture() {
  static const SearchFixture* fixture = new SearchFixture();
  return *fixture;
}

constexpr Value kSearchFixtureEps = 10.0;

void BM_CategorizedSearchDriver(benchmark::State& state) {
  const SearchFixture& fixture = SharedSearchFixture();
  const std::shared_ptr<const core::Tier> tiers[] = {fixture.tier};
  core::QueryOptions options;
  options.use_lower_bound = state.range(0) != 0;
  std::size_t answers = 0;
  for (auto _ : state) {
    const std::vector<core::Match> out =
        core::SearchTiers(core::IndexKind::kCategorized, tiers,
                          fixture.query, kSearchFixtureEps, /*knn_k=*/0,
                          options);
    benchmark::DoNotOptimize(out.data());
    answers = out.size();
  }
  state.counters["answers"] = static_cast<double>(answers);
}
BENCHMARK(BM_CategorizedSearchDriver)->ArgName("lb")->Arg(0)->Arg(1);


/// Console output plus a JSON mirror of every per-iteration measurement
/// (aggregates and errored runs are skipped; the JSON holds raw entries).
class JsonCapturingReporter : public benchmark::ConsoleReporter {
 public:
  explicit JsonCapturingReporter(bench::JsonReport* report)
      : report_(report) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred || run.run_type != Run::RT_Iteration) continue;
      bench::JsonReport::Counters counters;
      for (const auto& [name, counter] : run.counters) {
        counters.emplace_back(name, counter.value);
      }
      const double iters =
          run.iterations > 0 ? static_cast<double>(run.iterations) : 1.0;
      report_->Add(run.benchmark_name(),
                   run.real_accumulated_time / iters * 1e9,
                   std::move(counters));
    }
    ConsoleReporter::ReportRuns(runs);
  }

 private:
  bench::JsonReport* report_;
};

}  // namespace
}  // namespace tswarp

int main(int argc, char** argv) {
  const bool json = tswarp::bench::StripJsonFlag(&argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  if (json) {
    tswarp::bench::JsonReport report("micro_kernels");
    tswarp::JsonCapturingReporter reporter(&report);
    benchmark::RunSpecifiedBenchmarks(&reporter);
    report.Write();
  } else {
    benchmark::RunSpecifiedBenchmarks();
  }
  benchmark::Shutdown();
  return 0;
}
