// Micro benchmarks of the DTW kernels and the suffix-tree construction /
// merge substrates (google-benchmark).
//
// Extra flags (stripped before google-benchmark sees argv):
//   --json   also write BENCH_micro_kernels.json (see report_json.h); the
//            active SIMD backend is recorded, so baselines taken under
//            TSWARP_SIMD=scalar and the host's best backend are directly
//            diffable.

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "report_json.h"

#include "categorize/categorizer.h"
#include "core/match.h"
#include "core/tree_search.h"
#include "storage/buffer_manager.h"
#include "storage/paged_file.h"
#include "common/random.h"
#include "datagen/generators.h"
#include "dtw/alignment.h"
#include "dtw/base.h"
#include "dtw/dtw.h"
#include "dtw/envelope.h"
#include "dtw/simd.h"
#include "dtw/warping_table.h"
#include "seqdb/sequence_database.h"
#include "suffixtree/merge.h"
#include "suffixtree/suffix_tree.h"
#include "suffixtree/tree_view.h"
#include "suffixtree/ukkonen.h"
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

void BM_SuffixTreeBuild(benchmark::State& state) {
  const suffixtree::SymbolDatabase symbols = CategorizedStocks(
      static_cast<std::size_t>(state.range(0)),
      static_cast<std::size_t>(state.range(1)));
  for (auto _ : state) {
    suffixtree::SuffixTree tree = suffixtree::BuildSuffixTree(symbols);
    benchmark::DoNotOptimize(tree.NumNodes());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(symbols.TotalSymbols()));
}
BENCHMARK(BM_SuffixTreeBuild)->Args({50, 20})->Args({50, 120})->Args({200, 20});

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

// --- Envelope lower-bound cascade kernels -------------------------------
// Kernel cost of each cascade stage, plus the prune rate the LB_Keogh /
// LB_Improved pair achieves on random-walk candidates at a given epsilon
// (reported as the "pruned" counter).

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

void BM_LbKeogh(benchmark::State& state) {
  const auto q = RandomSequence(static_cast<std::size_t>(state.range(0)), 1);
  const auto s = RandomSequence(static_cast<std::size_t>(state.range(0)), 2);
  const dtw::QueryEnvelope env(q, static_cast<Pos>(state.range(1)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(dtw::LbKeogh(env, s));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_LbKeogh)->Args({20, 0})->Args({100, 0})->Args({100, 10});

void BM_LbImproved(benchmark::State& state) {
  const auto q = RandomSequence(static_cast<std::size_t>(state.range(0)), 1);
  const auto s = RandomSequence(static_cast<std::size_t>(state.range(0)), 2);
  const dtw::QueryEnvelope env(q, static_cast<Pos>(state.range(1)));
  dtw::EnvelopeScratch scratch;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        dtw::LbImproved(env, q, s, kInfinity, &scratch));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_LbImproved)->Args({20, 0})->Args({100, 0})->Args({100, 10});

void BM_LbCascadePruneRate(benchmark::State& state) {
  // Screens `kCandidates` random-walk candidates against one query; the
  // "pruned" counter is the cascade's kill rate at this epsilon, the
  // "exact" counter what still reaches the exact kernel.
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
  dtw::EnvelopeScratch scratch;
  std::int64_t pruned = 0, exact = 0;
  for (auto _ : state) {
    for (const auto& s : candidates) {
      if (dtw::LbImproved(env, q, s, eps, &scratch) > eps) {
        ++pruned;
        continue;
      }
      ++exact;
      Value d = 0;
      benchmark::DoNotOptimize(dtw::DtwWithinThreshold(q, s, eps, &d));
    }
  }
  state.counters["pruned"] =
      benchmark::Counter(static_cast<double>(pruned),
                         benchmark::Counter::kAvgIterations);
  state.counters["exact"] =
      benchmark::Counter(static_cast<double>(exact),
                         benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_LbCascadePruneRate)->Arg(5)->Arg(20)->Arg(80);

void BM_SummaryLb(benchmark::State& state) {
  // The node-summary screen kernel: per-query-element min distance to a
  // handful of value hulls, summed with early abandon. Args: query length
  // and hull count (the driver passes at most 6 = prefix + subtree + 4
  // label segments).
  const auto q = RandomSequence(static_cast<std::size_t>(state.range(0)), 1);
  const auto k = static_cast<std::size_t>(state.range(1));
  Rng rng(7);
  std::vector<Value> lo(k), hi(k);
  for (std::size_t i = 0; i < k; ++i) {
    const Value center = rng.Uniform(20, 80);
    lo[i] = center - rng.Uniform(0.5, 5.0);
    hi[i] = center + rng.Uniform(0.5, 5.0);
  }
  const auto& kernels = dtw::simd::Kernels();
  for (auto _ : state) {
    benchmark::DoNotOptimize(kernels.summary_lb(
        q.data(), lo.data(), hi.data(), k, q.size(), kInfinity));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) *
                          state.range(1));
}
BENCHMARK(BM_SummaryLb)
    ->ArgNames({"n", "hulls"})
    ->Args({20, 2})
    ->Args({20, 6})
    ->Args({100, 2})
    ->Args({100, 6});

void BM_SummaryLbEarlyAbandon(benchmark::State& state) {
  // Same kernel with a cap it crosses almost immediately (hulls far from
  // the query): the block-granular early abandon should make cost nearly
  // independent of n.
  const auto q = RandomSequence(static_cast<std::size_t>(state.range(0)), 1);
  const std::vector<Value> lo = {500.0, 620.0};
  const std::vector<Value> hi = {510.0, 640.0};
  const auto& kernels = dtw::simd::Kernels();
  for (auto _ : state) {
    benchmark::DoNotOptimize(kernels.summary_lb(
        q.data(), lo.data(), hi.data(), lo.size(), q.size(), 10.0));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SummaryLbEarlyAbandon)->Arg(20)->Arg(100)->Arg(400);

void BM_DtwAlign(benchmark::State& state) {
  const auto a = RandomSequence(static_cast<std::size_t>(state.range(0)), 8);
  const auto b = RandomSequence(static_cast<std::size_t>(state.range(0)), 9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dtw::DtwAlign(a, b).distance);
  }
}
BENCHMARK(BM_DtwAlign)->Arg(32)->Arg(128);

// --- Buffer-manager kernels ---------------------------------------------
// Cost of the pin/latch protocol in isolation: guard acquire+release on
// the hit path, shard scaling under concurrent pins, and the two eviction
// policies under a steady miss stream. Setup/teardown run on thread 0;
// google-benchmark barriers the other threads until the iteration loop.

struct ScratchPool {
  std::filesystem::path path;
  std::optional<storage::PagedFile> file;
  std::optional<storage::BufferManager> mgr;
};

void SetUpPool(const char* name, std::uint64_t pages,
               const storage::BufferManagerOptions& options,
               ScratchPool* pool) {
  pool->path = std::filesystem::temp_directory_path() /
               (std::string("tswarp_micro_") + name + "_" +
                std::to_string(::getpid()) + ".dat");
  auto file = storage::PagedFile::Create(pool->path.string());
  if (!file.ok()) std::abort();
  pool->file.emplace(std::move(file).value());
  std::vector<std::byte> page(storage::PagedFile::kPageSize, std::byte{7});
  for (std::uint64_t p = 0; p < pages; ++p) {
    if (!pool->file->WritePage(p, page).ok()) std::abort();
  }
  pool->mgr.emplace(&*pool->file, options);
}

void TearDownPool(ScratchPool* pool) {
  pool->mgr.reset();
  pool->file.reset();
  std::filesystem::remove(pool->path);
}

void BM_PageGuardAcquireRelease(benchmark::State& state) {
  // Pure hit path, one shard, no contention: the floor cost of one
  // Pin (shard lookup + pin count + shared latch) and guard release.
  static ScratchPool pool;
  constexpr std::uint64_t kPages = 64;
  if (state.thread_index() == 0) {
    storage::BufferManagerOptions options;
    options.capacity_pages = kPages;
    options.num_shards = 1;
    SetUpPool("guard", kPages, options, &pool);
  }
  std::uint64_t p = 0;
  for (auto _ : state) {
    auto guard = pool.mgr->Pin(p, storage::PinIntent::kRead);
    if (!guard.ok()) std::abort();
    benchmark::DoNotOptimize(guard->bytes().data());
    p = (p + 1) % kPages;
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) TearDownPool(&pool);
}
BENCHMARK(BM_PageGuardAcquireRelease);

void BM_BufferManagerHitPath(benchmark::State& state) {
  // Same hit stream through 1 shard (the old single-mutex pool) vs 8
  // shards, at 1/4/8 concurrent pinning threads.
  static ScratchPool pool;
  constexpr std::uint64_t kPages = 256;
  if (state.thread_index() == 0) {
    storage::BufferManagerOptions options;
    options.capacity_pages = kPages;
    options.num_shards = static_cast<std::size_t>(state.range(0));
    SetUpPool("hitpath", kPages, options, &pool);
  }
  auto p = static_cast<std::uint64_t>(state.thread_index()) * 17;
  for (auto _ : state) {
    auto guard = pool.mgr->Pin(p % kPages, storage::PinIntent::kRead);
    if (!guard.ok()) std::abort();
    benchmark::DoNotOptimize(guard->bytes().data());
    p += 13;  // Co-prime stride: every thread sweeps every shard.
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) {
    state.counters["conflicts"] = benchmark::Counter(
        static_cast<double>(pool.mgr->stats().shard_conflicts));
    TearDownPool(&pool);
  }
}
BENCHMARK(BM_BufferManagerHitPath)
    ->ArgName("shards")
    ->Arg(1)
    ->Arg(8)
    ->Threads(1)
    ->Threads(4)
    ->Threads(8);

void BM_BufferManagerEviction(benchmark::State& state) {
  // Steady-state miss stream: a sequential sweep over twice the pool
  // capacity, so every pin evicts. Compares the LRU list against the
  // CLOCK ring on the same access pattern.
  static ScratchPool pool;
  constexpr std::uint64_t kPages = 64;
  if (state.thread_index() == 0) {
    storage::BufferManagerOptions options;
    options.capacity_pages = kPages / 2;
    options.num_shards = 1;
    options.eviction = state.range(0) == 0
                           ? storage::EvictionPolicyKind::kLru
                           : storage::EvictionPolicyKind::kClock;
    SetUpPool("evict", kPages, options, &pool);
  }
  std::uint64_t p = 0;
  for (auto _ : state) {
    auto guard = pool.mgr->Pin(p, storage::PinIntent::kRead);
    if (!guard.ok()) std::abort();
    benchmark::DoNotOptimize(guard->bytes().data());
    p = (p + 1) % kPages;
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) {
    state.counters["evictions"] = benchmark::Counter(
        static_cast<double>(pool.mgr->stats().evictions));
    TearDownPool(&pool);
  }
}
BENCHMARK(BM_BufferManagerEviction)
    ->ArgName("policy")  // 0 = LRU, 1 = CLOCK
    ->Arg(0)
    ->Arg(1);

void BM_UkkonenVsInsertion(benchmark::State& state) {
  // Single sequence with a small alphabet: Ukkonen's linear construction
  // vs the suffix-insertion builder.
  Rng rng(6);
  suffixtree::SymbolDatabase db;
  suffixtree::SymbolSequence s;
  for (int i = 0; i < state.range(0); ++i) {
    s.push_back(static_cast<Symbol>(rng.UniformInt(0, 3)));
  }
  db.Add(std::move(s));
  const bool use_ukkonen = state.range(1) != 0;
  for (auto _ : state) {
    if (use_ukkonen) {
      benchmark::DoNotOptimize(
          suffixtree::BuildSuffixTreeUkkonen(db, 0).NumNodes());
    } else {
      suffixtree::SuffixTreeBuilder builder(&db);
      builder.InsertSequence(0);
      benchmark::DoNotOptimize(builder.Build().NumNodes());
    }
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_UkkonenVsInsertion)
    ->Args({1000, 0})
    ->Args({1000, 1})
    ->Args({20000, 0})
    ->Args({20000, 1})
    ->Args({100000, 0})
    ->Args({100000, 1});

// --- Categorized tree search through the shared driver -----------------
// One dense ST_C range search (core::SearchDriver<CategoryModel>) on a
// fixed index / query / epsilon: interval rows to the first passing row
// on each path, then one exact scan per start below it. The `lb` arg
// toggles the running lower bound of those scans.

struct SearchFixture {
  SearchFixture()
      : db(datagen::GenerateStocks(StockOpts())),
        alphabet(categorize::BuildMaxEntropy(categorize::CollectValues(db),
                                             /*num_categories=*/32)
                     .value()),
        symbols(std::move(
            categorize::ConvertDatabase(db, &alphabet).sequences)),
        tree(suffixtree::BuildSuffixTree(symbols)) {
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
  categorize::Alphabet alphabet;
  suffixtree::SymbolDatabase symbols;
  suffixtree::SuffixTree tree;
  std::vector<Value> query;
};

const SearchFixture& SharedSearchFixture() {
  static const SearchFixture* fixture = new SearchFixture();
  return *fixture;
}

constexpr Value kSearchFixtureEps = 10.0;

void BM_CategorizedSearchDriver(benchmark::State& state) {
  const SearchFixture& fixture = SharedSearchFixture();
  core::TreeSearchConfig config;
  config.tree = &fixture.tree;
  config.db = &fixture.db;
  config.alphabet = &fixture.alphabet;
  config.use_lower_bound = state.range(0) != 0;
  std::size_t answers = 0;
  for (auto _ : state) {
    const std::vector<core::Match> out =
        core::TreeSearch(config, fixture.query, kSearchFixtureEps);
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
