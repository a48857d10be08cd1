// One workload of the repository benchmark, run in its own process.
//
//   perfbench_runner --workload stock-sstc|ecg-disk|serve-ingest
//                    --seed N --seconds S --trace 0|1
//                    --work-dir DIR [--spans FILE]
//
// Every workload is a closed loop with a single caller over a fixed,
// seeded op list ("pass"). After a few back-to-back set-ups and an
// untimed warm-up, the same pass repeats until --seconds have elapsed. Set-up time is a median over the set-ups, and an op's latency
// is the least of its timings over the passes: host noise on a shared VM
// moves single timings of one op by up to 2x and single builds by 20-80%
// (README.md).
//
// With --trace 1 the run records spans around every call into a layer
// (see trace.h) and writes them to --spans at exit; traced and untraced
// passes alternate so the tracing overhead can be read off the pass times.
// End-to-end metrics always come from untraced passes.
//
// The last line of stdout is one JSON object with the raw results; the
// Python front end (run.py) turns it into the benchmark's result line.

#include <sys/resource.h>
#include <sys/vfs.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <numeric>
#include <optional>
#include <random>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "categorize/categorizer.h"
#include "core/index.h"
#include "core/seq_scan.h"
#include "core/tier.h"
#include "core/tiered_index.h"
#include "datagen/generators.h"
#include "dtw/simd.h"
#include "seqdb/sequence_database.h"
#include "server/client.h"
#include "server/index_handle.h"
#include "server/json.h"
#include "server/server.h"
#include "suffixtree/disk_tree.h"
#include "suffixtree/suffix_tree.h"
#include "trace.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace tswarp::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// SplitMix64: derives independent sub-seeds (query anchors, query jitter,
/// appends) from one seed, so each seed gives one fixed set of inputs.
std::uint64_t SubSeed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + stream * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Percentile (p in [0, 1]) interpolated linearly between order
/// statistics, so it moves smoothly with the samples.
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = p * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (rank - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

// --- Probes for APIs that the roadmap may delete --------------------------
// The node-summary screen and the buffer pool are slated for removal or
// rework. These probes keep the benchmark compiling once they are gone;
// the affected per-layer metrics then read 0.

template <typename Options>
void SetScreen(Options* options, bool on) {
  if constexpr (requires { options->use_node_summaries; }) {
    options->use_node_summaries = on;
  }
}

template <typename Stats>
double SummaryInvocations(const Stats& s) {
  if constexpr (requires { s.summary_lb_invocations; }) {
    return static_cast<double>(s.summary_lb_invocations);
  } else {
    return 0.0;
  }
}

template <typename Stats>
double SummaryPruned(const Stats& s) {
  if constexpr (requires { s.nodes_pruned_by_summary; }) {
    return static_cast<double>(s.nodes_pruned_by_summary);
  } else {
    return 0.0;
  }
}

/// Re-runs the summary pass of Index::Build (TierSymbolHulls +
/// BuildNodeSummaries) on a built tier; returns the record count.
template <typename TierT>
double RebuildSummaries(const TierT& tier) {
  if constexpr (requires {
                  BuildNodeSummaries(*tier.view(), TierSymbolHulls(tier));
                }) {
    const auto hulls = TierSymbolHulls(tier);
    return static_cast<double>(BuildNodeSummaries(*tier.view(), hulls).size());
  } else {
    return 0.0;
  }
}

template <typename IndexT>
double PoolMisses(const IndexT& index) {
  if constexpr (requires { index.PoolStats(); }) {
    const auto stats = index.PoolStats();
    return stats.has_value() ? static_cast<double>(stats->Total().misses) : 0.0;
  } else {
    return 0.0;
  }
}

// --------------------------------------------------------------------------

void CountSearch(Tracer::Scope* span, const core::SearchStats& s,
                 std::size_t answers) {
  span->Count("answers", static_cast<double>(answers));
  span->Count("nodes_visited", static_cast<double>(s.nodes_visited));
  span->Count("rows_pushed", static_cast<double>(s.rows_pushed));
  span->Count("unshared_rows", static_cast<double>(s.unshared_rows));
  span->Count("cells_computed", static_cast<double>(s.cells_computed));
  span->Count("candidates", static_cast<double>(s.candidates));
  span->Count("exact_dtw_calls", static_cast<double>(s.exact_dtw_calls));
  span->Count("lb_invocations", static_cast<double>(s.lb_invocations));
  span->Count("lb_pruned", static_cast<double>(s.lb_pruned));
  span->Count("summary_lb_invocations", SummaryInvocations(s));
  span->Count("nodes_pruned_by_summary", SummaryPruned(s));
}

/// k of every k-NN search.
constexpr std::size_t kKnnK = 10;

enum class OpKind { kRange, kKnn, kAppend };

struct OpSample {
  OpKind kind;
  double ms;
};

/// Ops attempted and failed (non-200, transport error, answer mismatch,
/// lost continuous delivery), counted over warm-up, passes and the gate.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  void Check(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// One complete set-up (replacing the previous one); the last is served.
  virtual Status Setup(Tracer* tracer) = 0;
  /// Runs the first `cycles` cycles of the op list (a few for the
  /// warm-up, Cycles() for a pass); `pass` (0 is the warm-up) only labels
  /// the spans. Every pass appends its samples in the same order, so
  /// sample i of every pass times the same op. `tracer` is a disabled
  /// tracer on untraced passes.
  virtual void RunPass(Tracer* tracer, std::size_t pass, std::size_t cycles,
                       std::vector<OpSample>* out, Tally* tally) = 0;
  virtual std::size_t Cycles() const = 0;
  /// Upper bound on timed passes (serve-ingest caps how much it appends).
  virtual std::size_t MaxPasses() const { return 1000000; }
  /// Traced run only: paired diagnostic measurements after the passes.
  virtual void Diagnose(Tracer* tracer) = 0;
  /// Correctness gate outside the timed passes.
  virtual void Gate(Tracer* tracer, Tally* tally) = 0;
  virtual double IndexBytesPerInputByte() const = 0;
  /// End-of-run gauges as trace events.
  virtual void Gauges(Tracer* tracer) = 0;
};

/// Re-invokes the entry points an index build ran internally on the same
/// inputs (categorize::Build + ConvertDatabase, SuffixTreeBuilder or
/// BuildDiskTree, TierSymbolHulls + BuildNodeSummaries on the built
/// `tier`), so the traced run can attribute build time to layers without
/// instrumenting the library. Their spans name the build as parent. A
/// non-empty `disk_dir` takes the disk tree step, into a scratch bundle
/// there that is removed again.
Status ReinvokeBuildSteps(const seqdb::SequenceDatabase& db,
                          const core::IndexOptions& options,
                          const core::Tier& tier, const std::string& disk_dir,
                          Tracer* tracer, std::int64_t build_id) {
  std::optional<categorize::CategorizedDatabase> converted;
  {
    Tracer::Scope span = tracer->Begin("categorize.build", -1, build_id);
    const std::vector<Value> values = categorize::CollectValues(db);
    auto alphabet = categorize::Build(options.method, values,
                                      options.num_categories, options.seed);
    if (!alphabet.ok()) return alphabet.status();
    converted = categorize::ConvertDatabase(db, &*alphabet);
  }
  suffixtree::SymbolDatabase symbols(std::move(converted->sequences));
  suffixtree::BuildOptions build;
  build.sparse = options.kind == core::IndexKind::kSparse;
  if (!disk_dir.empty()) {
    Tracer::Scope span = tracer->Begin("suffixtree.disk_build", -1, build_id);
    const std::string path = disk_dir + "/reinvoked";
    suffixtree::DiskBuildOptions disk;
    disk.build = build;
    disk.batch_sequences = options.disk_batch_sequences;
    auto tree = suffixtree::BuildDiskTree(symbols, path, disk);
    if (!tree.ok()) return tree.status();
    span.Count("nodes", static_cast<double>((*tree)->NumNodes()));
    tree->reset();
    suffixtree::RemoveDiskTree(path);
  } else {
    Tracer::Scope span = tracer->Begin("suffixtree.build", -1, build_id);
    suffixtree::SuffixTreeBuilder builder(&symbols, build);
    for (SeqId id = 0; id < symbols.size(); ++id) builder.InsertSequence(id);
    const suffixtree::SuffixTree tree = builder.Build();
    span.Count("nodes", static_cast<double>(tree.NumNodes()));
  }
  Tracer::Scope span = tracer->Begin("suffixtree.summaries", -1, build_id);
  span.Count("records", RebuildSummaries(tier));
  return Status::OK();
}

// --- stock-sstc and ecg-disk: library searches over one static index ------

struct LibraryConfig {
  bool on_disk = false;
  Value epsilon = 10;
  std::size_t gate_queries = 0;
};

class LibraryWorkload : public Workload {
 public:
  using Queries = std::vector<seqdb::Sequence>;

  LibraryWorkload(seqdb::SequenceDatabase db, Queries range, Queries knn,
                  LibraryConfig config, std::string work_dir)
      : db_(std::move(db)),
        range_(std::move(range)),
        knn_(std::move(knn)),
        range_answers_(range_.size(), -1),
        config_(config),
        work_dir_(std::move(work_dir)) {
    options_.kind = core::IndexKind::kSparse;
    options_.method = categorize::Method::kMaxEntropy;
    options_.num_categories = 40;
  }

  ~LibraryWorkload() override {
    index_.reset();
    RemoveBundle();
  }

  Status Setup(Tracer* tracer) override {
    index_.reset();
    RemoveBundle();
    Tracer::Scope build = tracer->Begin("core.index_build");
    const std::int64_t build_id = build.id();
    if (config_.on_disk) {
      bundle_ = work_dir_ + "/ecg-" + std::to_string(setups_);
      options_.disk_path = bundle_;
      {
        auto built = core::Index::Build(&db_, options_);
        if (!built.ok()) return built.status();
      }
      build.End();
      Tracer::Scope open = tracer->Begin("storage.open");
      auto opened = core::Index::Open(&db_, options_);
      if (!opened.ok()) return opened.status();
      index_.emplace(std::move(*opened));
    } else {
      auto built = core::Index::Build(&db_, options_);
      if (!built.ok()) return built.status();
      index_.emplace(std::move(*built));
    }
    build.End();
    ++setups_;
    if (!tracer->enabled()) return Status::OK();
    return ReinvokeBuildSteps(db_, options_, *index_->snapshot()->tiers().front(),
                              config_.on_disk ? work_dir_ : "", tracer, build_id);
  }

  /// Cycle i is range query i, then k-NN query i if there is one.
  void RunPass(Tracer* tracer, std::size_t pass, std::size_t cycles,
               std::vector<OpSample>* out, Tally* tally) override {
    const bool traced = tracer->enabled();
    const auto op_base = static_cast<std::int64_t>(pass) << 20;
    for (std::size_t i = 0; i < cycles; ++i) {
      const auto op = op_base + static_cast<std::int64_t>(2 * i);
      core::SearchStats stats;
      Tracer::Scope span = tracer->Begin("core.search", op);
      const Clock::time_point t0 = Clock::now();
      const std::vector<core::Match> matches = index_->Search(
          range_[i], config_.epsilon, {}, traced ? &stats : nullptr);
      out->push_back({OpKind::kRange, MsSince(t0)});
      CountSearch(&span, stats, matches.size());
      span.End();
      // Answer counts are deterministic, so every pass must repeat them;
      // the gate checks the answer sets themselves against SeqScan.
      const auto n = static_cast<std::int64_t>(matches.size());
      if (range_answers_[i] < 0) range_answers_[i] = n;
      tally->Check(n == range_answers_[i]);

      if (i >= knn_.size()) continue;
      Tracer::Scope knn_span = tracer->Begin("core.search_knn", op + 1);
      const Clock::time_point t1 = Clock::now();
      const std::vector<core::Match> nearest =
          index_->SearchKnn(knn_[i], kKnnK);
      out->push_back({OpKind::kKnn, MsSince(t1)});
      knn_span.End();
      tally->Check(nearest.size() == kKnnK);
    }
  }

  std::size_t Cycles() const override { return range_.size(); }

  void Diagnose(Tracer* tracer) override {
    // core.screen_net_ms: each range query with the node-summary
    // screen on and off, back to back, alternating which side runs first.
    core::QueryOptions on;
    core::QueryOptions off;
    SetScreen(&on, true);
    SetScreen(&off, false);
    for (std::size_t i = 0; i < range_.size(); ++i) {
      const auto op = static_cast<std::int64_t>(i);
      for (int leg = 0; leg < 2; ++leg) {
        const bool screen = (leg == 0) == (i % 2 == 0);
        Tracer::Scope span = tracer->Begin(
            screen ? "core.search_screen_on" : "core.search_screen_off", op);
        index_->Search(range_[i], config_.epsilon, screen ? on : off);
      }
    }
  }

  void Gate(Tracer* tracer, Tally* tally) override {
    // Evenly spaced queries, so the sample spans the whole cost range.
    for (std::size_t g = 0; g < config_.gate_queries; ++g) {
      const std::size_t i = g * range_.size() / config_.gate_queries;
      Tracer::Scope span = tracer->Begin("core.seq_scan", static_cast<std::int64_t>(i));
      std::vector<core::Match> want =
          core::SeqScan(db_, range_[i], config_.epsilon);
      span.End();
      std::vector<core::Match> got = index_->Search(range_[i], config_.epsilon);
      std::sort(want.begin(), want.end(), core::MatchLess);
      std::sort(got.begin(), got.end(), core::MatchLess);
      bool same = want.size() == got.size();
      for (std::size_t m = 0; same && m < want.size(); ++m) {
        same = want[m] == got[m] &&
               std::memcmp(&want[m].distance, &got[m].distance,
                           sizeof(Value)) == 0;
      }
      if (!same) {
        std::fprintf(stderr, "gate: query %zu differs from SeqScan (%zu vs %zu)\n",
                     i, got.size(), want.size());
      }
      tally->Check(same);
    }
  }

  double IndexBytesPerInputByte() const override {
    return static_cast<double>(index_->build_info().index_bytes) /
           static_cast<double>(db_.TotalElements() * sizeof(Value));
  }

  void Gauges(Tracer* tracer) override {
    const core::IndexBuildInfo& info = index_->build_info();
    tracer->Event("suffixtree.shape",
                  {{"nodes", static_cast<double>(info.num_nodes)},
                   {"occurrences", static_cast<double>(info.num_occurrences)}});
    if (config_.on_disk) {
      const core::MappedIoStats mapped = index_->MappedStats();
      tracer->Event(
          "storage.stats",
          {{"mapped_mb", static_cast<double>(mapped.mapped_bytes) / 1048576.0},
           {"resident_mb",
            static_cast<double>(mapped.resident_bytes) / 1048576.0},
           {"pool_misses", PoolMisses(*index_)}});
    }
  }

 private:
  void RemoveBundle() {
    if (bundle_.empty()) return;
    suffixtree::RemoveDiskTree(bundle_);
    std::remove((bundle_ + ".index").c_str());
    bundle_.clear();
  }

  const seqdb::SequenceDatabase db_;
  const Queries range_;
  const Queries knn_;
  std::vector<std::int64_t> range_answers_;
  const LibraryConfig config_;
  const std::string work_dir_;
  core::IndexOptions options_;
  std::optional<core::Index> index_;
  std::string bundle_;
  int setups_ = 0;
};

/// Untimed warm-up: enough ops to fault in the index and the result
/// buffers; the least-of-passes latencies absorb what stays cold.
constexpr std::size_t kWarmupCycles = 8;

// --- Queries: fixed anchors, seeded jitter --------------------------------
// A query's cost depends mostly on where in the data it is cut from (price
// level, beat phase), so queries drawn afresh for every seed move the
// latency percentiles by 10-25% from seed to seed. Every workload instead
// draws its query places ("anchors") once, from a fixed seed, and the run
// seed moves each query's start by up to kJitter samples: the queries
// differ from seed to seed while their cost distribution barely does
// (about 3% on the p50 of the stock range queries' rows pushed).

constexpr std::uint64_t kAnchorSeed = 13;
constexpr Pos kJitter = 6;

struct Anchor {
  SeqId id;
  Pos start;
  Pos len;
};

/// Appends `count` anchors on sequences of `pool`: a random sequence, a
/// length uniform in [min_len, max_len] and a start at least kJitter away
/// from either end.
void DrawAnchors(const seqdb::SequenceDatabase& db,
                 const std::vector<SeqId>& pool, std::size_t count,
                 Pos min_len, Pos max_len, std::mt19937_64* rng,
                 std::vector<Anchor>* out) {
  std::uniform_int_distribution<std::size_t> pick_seq(0, pool.size() - 1);
  std::uniform_int_distribution<Pos> pick_len(min_len, max_len);
  for (std::size_t i = 0; i < count; ++i) {
    const SeqId id = pool[pick_seq(*rng)];
    const auto size = static_cast<Pos>(db.sequence(id).size());
    const Pos len = std::min<Pos>(pick_len(*rng), size - 2 * kJitter);
    std::uniform_int_distribution<Pos> pick_start(kJitter, size - len - kJitter);
    out->push_back({id, pick_start(*rng), len});
  }
}

/// The queries at `anchors`, each start moved by a seeded offset in
/// [-kJitter, kJitter].
std::vector<seqdb::Sequence> JitteredQueries(const seqdb::SequenceDatabase& db,
                                             const std::vector<Anchor>& anchors,
                                             std::uint64_t seed,
                                             std::uint64_t stream) {
  std::mt19937_64 rng(SubSeed(seed, stream));
  std::uniform_int_distribution<Pos> offset(0, 2 * kJitter);
  std::vector<seqdb::Sequence> queries;
  for (const Anchor& a : anchors) {
    const std::span<const Value> q =
        db.Subsequence(a.id, a.start + offset(rng) - kJitter, a.len);
    queries.emplace_back(q.begin(), q.end());
  }
  return queries;
}

/// `n` anchors of the paper's query workload: length 20 +- 4, exactly
/// 20/50/30% from sequences whose mean value is below / between / above
/// the paper's price cuts. Strata that are empty in `db` fall back to any
/// sequence.
std::vector<Anchor> PaperAnchors(const seqdb::SequenceDatabase& db,
                                 std::size_t n, std::uint64_t stream) {
  const datagen::QueryWorkloadOptions paper;
  std::vector<SeqId> strata[3];
  std::vector<SeqId> any;
  for (SeqId id = 0; id < db.size(); ++id) {
    const Value mean = db.MeanValue(id);
    strata[mean < paper.low_cut ? 0 : mean <= paper.high_cut ? 1 : 2].push_back(id);
    any.push_back(id);
  }
  const std::size_t counts[3] = {n / 5, n / 2, n - n / 5 - n / 2};
  const auto min_len = static_cast<Pos>(paper.avg_length - paper.length_jitter);
  const auto max_len = static_cast<Pos>(paper.avg_length + paper.length_jitter);
  std::mt19937_64 rng(SubSeed(kAnchorSeed, stream));
  std::vector<Anchor> anchors;
  for (int s = 0; s < 3; ++s) {
    DrawAnchors(db, strata[s].empty() ? any : strata[s], counts[s], min_len,
                max_len, &rng, &anchors);
  }
  return anchors;
}

/// 100 range and 100 k-NN queries: at least ten ops lie beyond each p90.
std::unique_ptr<Workload> MakeLibrary(seqdb::SequenceDatabase db,
                                      std::uint64_t seed, LibraryConfig config,
                                      const std::string& work_dir) {
  LibraryWorkload::Queries range =
      JitteredQueries(db, PaperAnchors(db, 100, 1), seed, 1);
  LibraryWorkload::Queries knn =
      JitteredQueries(db, PaperAnchors(db, 100, 2), seed, 2);
  return std::make_unique<LibraryWorkload>(std::move(db), std::move(range),
                                           std::move(knn), config, work_dir);
}

std::unique_ptr<Workload> MakeStock(std::uint64_t seed,
                                    const std::string& work_dir) {
  // The paper's one stock data set: 545 sequences, average length 232,
  // generated with the library's fixed default seed like every other
  // paper bench. Every workload's data set is fixed and the seed moves the
  // queries (and, on serve-ingest, the appends) only: the stand-in's
  // log-normal price levels make query cost swing by 2x between
  // generated data sets, far beyond any bound a regression check can use.
  datagen::StockOptions stock;
  LibraryConfig config;
  config.epsilon = 10;
  config.gate_queries = 8;
  return MakeLibrary(datagen::GenerateStocks(stock), seed, config, work_dir);
}

std::unique_ptr<Workload> MakeEcg(std::uint64_t seed,
                                  const std::string& work_dir) {
  datagen::EcgOptions ecg;
  ecg.num_sequences = 200;
  ecg.length = 400;
  LibraryConfig config;
  config.on_disk = true;
  config.epsilon = 6;
  config.gate_queries = 4;
  return MakeLibrary(datagen::GenerateEcg(ecg), seed, config, work_dir);
}

// --- serve-ingest: tswarpd over a TieredIndex, one keep-alive client ------

std::string NumbersJson(std::span<const Value> values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i != 0) out.push_back(',');
    server::AppendJsonNumber(&out, values[i]);
  }
  out.push_back(']');
  return out;
}

/// Every kSentinelEvery-th append carries this pattern, far outside the
/// random-walk value range, so the continuous query registered for it
/// (epsilon 0.01) matches exactly once per sentinel append.
constexpr std::size_t kSentinelEvery = 5;
const std::vector<Value> kSentinel = {900, 930, 960, 990, 1020, 1050, 1080, 1110};

class ServeWorkload : public Workload {
 public:
  explicit ServeWorkload(std::uint64_t seed) : seed_(seed) {
    datagen::RandomWalkOptions walk;
    walk.num_sequences = 1000;
    walk.avg_length = 120;
    walk.length_jitter = 20;
    db_ = datagen::GenerateRandomWalks(walk);
    options_.index.kind = core::IndexKind::kCategorized;
    options_.index.num_categories = 12;
    options_.memtable_max_sequences = 8;
    options_.max_sealed_tiers = 2;
    options_.merge_in_background = true;

    std::vector<SeqId> all(db_.size());
    std::iota(all.begin(), all.end(), SeqId{0});
    std::mt19937_64 rng(SubSeed(kAnchorSeed, 3));
    std::vector<Anchor> range;
    std::vector<Anchor> knn;
    DrawAnchors(db_, all, kCyclesPerPass, 12, 20, &rng, &range);
    DrawAnchors(db_, all, kCyclesPerPass, 12, 20, &rng, &knn);
    range_queries_ = JitteredQueries(db_, range, seed, 3);
    knn_queries_ = JitteredQueries(db_, knn, seed, 4);
  }

  ~ServeWorkload() override { Teardown(); }

  Status Setup(Tracer* tracer) override {
    Teardown();
    {
      Tracer::Scope span = tracer->Begin("core.tiered_create");
      auto created = core::TieredIndex::Create(&db_, options_);
      if (!created.ok()) return created.status();
      tiered_ = std::move(*created);
      const std::int64_t create_id = span.id();
      span.End();
      if (tracer->enabled()) {
        const Status reinvoked = ReinvokeBuildSteps(
            db_, options_.index, *tiered_->Snapshot()->tiers().front(), "",
            tracer, create_id);
        if (!reinvoked.ok()) return reinvoked;
      }
    }
    handle_ = std::make_unique<server::IndexHandle>(tiered_);
    {
      Tracer::Scope span = tracer->Begin("server.start");
      server::ServerOptions server_options;
      server_options.connection_threads = 2;
      auto started = server::Server::Start(handle_.get(), server_options);
      if (!started.ok()) return started.status();
      server_ = std::move(*started);
    }
    auto client = server::HttpClient::Connect("127.0.0.1", server_->port());
    if (!client.ok()) return client.status();
    client_.emplace(std::move(*client));
    auto reg = client_->Post("/continuous/register",
                             "{\"epsilon\":0.01,\"query\":" +
                                 NumbersJson(kSentinel) + "}");
    if (!reg.ok()) return reg.status();
    auto reg_body = server::ParseJson(reg->body);
    if (reg->status != 200 || !reg_body.ok() || reg_body->Find("id") == nullptr) {
      return Status::Internal("continuous register failed");
    }
    continuous_id_ = static_cast<std::uint64_t>(reg_body->Find("id")->AsNumber());

    append_rng_.seed(SubSeed(seed_, 5));
    appends_ = 0;
    sentinels_ = 0;
    appended_values_ = 0;
    Tally prefill;
    for (std::size_t i = 0; i < kPrefillAppends; ++i) {
      Tracer::Scope span = tracer->Begin("server.append");
      Append(nullptr, &prefill);
    }
    if (prefill.failed != 0) return Status::Internal("prefill append failed");
    {
      Tracer::Scope span = tracer->Begin("tiered.drain");
      tiered_->WaitForMerges();
    }
    const core::TieredStats stats = tiered_->Stats();
    merges_after_setup_ = stats.merges_completed;
    if (stats.merges_completed < 3) {
      return Status::Internal("prefill completed fewer than 3 merges");
    }
    const auto snapshot = handle_->Snapshot();
    index_bytes_per_input_byte_ =
        static_cast<double>(snapshot->build_info().index_bytes) /
        static_cast<double>((db_.TotalElements() + appended_values_) *
                            sizeof(Value));
    return Status::OK();
  }

  void RunPass(Tracer* tracer, std::size_t pass, std::size_t cycles,
               std::vector<OpSample>* out, Tally* tally) override {
    const auto op_base = static_cast<std::int64_t>(pass) << 20;
    for (std::size_t c = 0; c < cycles; ++c) {
      const auto op = op_base + static_cast<std::int64_t>(4 * c);
      for (int a = 0; a < 2; ++a) {
        Tracer::Scope span = tracer->Begin("server.append", op + a);
        out->push_back({OpKind::kAppend, Append(&span, tally)});
      }
      out->push_back({OpKind::kRange,
                      Search(tracer, "server.search", op + 2,
                             RangeBody(range_queries_[c], tracer->enabled()),
                             tally)});
      out->push_back({OpKind::kKnn,
                      Search(tracer, "server.search_knn", op + 3,
                             KnnBody(knn_queries_[c], tracer->enabled()),
                             tally)});
    }
  }

  std::size_t Cycles() const override { return kCyclesPerPass; }

  /// The warm-up and the timed passes append at most a fifth of the
  /// values indexed after set-up, so search cost does not drift during the
  /// run.
  std::size_t MaxPasses() const override {
    const std::size_t budget_appends =
        (db_.TotalElements() + kPrefillAppends * kAppendLength) / 5 /
        kAppendLength;
    return (budget_appends - 2 * kWarmupCycles) / (2 * kCyclesPerPass);
  }

  void Diagnose(Tracer* tracer) override {
    // server.search_overhead_ms: a round trip, then the same query as a
    // direct Search on the snapshot the server is serving (no appends run
    // in between).
    for (std::size_t q = 0; q < kCyclesPerPass; ++q) {
      const auto op = static_cast<std::int64_t>(q);
      Tally ignored;
      Search(tracer, "server.search_roundtrip", op,
             RangeBody(range_queries_[q], false), &ignored);
      const auto snapshot = handle_->Snapshot();
      core::SearchStats stats;
      Tracer::Scope span = tracer->Begin("core.search", op);
      const std::vector<core::Match> matches =
          snapshot->Search(range_queries_[q], kEpsilon, {}, &stats);
      CountSearch(&span, stats, matches.size());
      span.Count("tiers", static_cast<double>(snapshot->tiers().size()));
    }
  }

  void Gate(Tracer* tracer, Tally* tally) override {
    {
      Tracer::Scope span = tracer->Begin("tiered.drain");
      tiered_->WaitForMerges();
    }
    // The drain can outlast the server's keep-alive idle limit.
    auto fresh = server::HttpClient::Connect("127.0.0.1", server_->port());
    tally->Check(fresh.ok());
    if (!fresh.ok()) return;
    client_.emplace(std::move(*fresh));

    // Served bodies must equal the serializer over a direct search on the
    // same (settled) snapshot.
    const auto snapshot = handle_->Snapshot();
    for (std::size_t q = 0; q < 4; ++q) {
      const std::vector<core::Match> range =
          snapshot->Search(range_queries_[q], kEpsilon);
      const std::vector<core::Match> knn =
          snapshot->SearchKnn(knn_queries_[q], kKnnK);
      tally->Check(BodyEquals(RangeBody(range_queries_[q], false),
                              server::SearchResponseBody("ok", range, nullptr)));
      tally->Check(BodyEquals(KnnBody(knn_queries_[q], false),
                              server::SearchResponseBody("ok", knn, nullptr)));
    }

    // Exactly one continuous delivery per sentinel append, none dropped.
    auto poll = client_->Post(
        "/continuous/poll", "{\"id\":" + std::to_string(continuous_id_) + "}");
    std::size_t delivered = 0;
    std::size_t dropped = 0;
    bool ok = poll.ok() && poll->status == 200;
    if (ok) {
      auto body = server::ParseJson(poll->body);
      ok = body.ok() && body->Find("delivered") != nullptr &&
           body->Find("dropped") != nullptr;
      if (ok) {
        delivered = static_cast<std::size_t>(body->Find("delivered")->AsNumber());
        dropped = static_cast<std::size_t>(body->Find("dropped")->AsNumber());
      }
    }
    ok = ok && delivered == sentinels_ && dropped == 0;
    if (!ok) {
      std::fprintf(stderr, "gate: continuous delivered %zu dropped %zu, want %zu\n",
                   delivered, dropped, sentinels_);
    }
    tally->Check(ok);
  }

  double IndexBytesPerInputByte() const override {
    return index_bytes_per_input_byte_;
  }

  void Gauges(Tracer* tracer) override {
    const core::TieredStats stats = tiered_->Stats();
    tracer->Event(
        "tiered.stats",
        {{"merges_completed",
          static_cast<double>(stats.merges_completed - merges_after_setup_)},
         {"tiers", static_cast<double>(stats.tiers.size())}});
    const server::ServerCounters counters = server_->Counters();
    tracer->Event(
        "server.stats",
        {{"queue_high_water", static_cast<double>(counters.queue_high_water)},
         {"rejected", static_cast<double>(counters.rejected)}});
    const core::IndexBuildInfo& info = handle_->Snapshot()->build_info();
    tracer->Event("suffixtree.shape",
                  {{"nodes", static_cast<double>(info.num_nodes)},
                   {"occurrences", static_cast<double>(info.num_occurrences)}});
  }

 private:
  static constexpr std::size_t kCyclesPerPass = 100;
  static constexpr std::size_t kPrefillAppends = 64;
  static constexpr std::size_t kAppendLength = 48;
  static constexpr Value kEpsilon = 4;

  static std::string RangeBody(const std::vector<Value>& q, bool stats) {
    std::string body = "{\"epsilon\":";
    server::AppendJsonNumber(&body, kEpsilon);
    if (stats) body += ",\"include_stats\":true";
    return body + ",\"query\":" + NumbersJson(q) + "}";
  }

  static std::string KnnBody(const std::vector<Value>& q, bool stats) {
    std::string body = stats ? "{\"include_stats\":true," : "{";
    return body + "\"k\":" + std::to_string(kKnnK) +
           ",\"query\":" + NumbersJson(q) + "}";
  }

  /// POSTs one append of the deterministic append stream; returns its
  /// round-trip latency in ms.
  double Append(Tracer::Scope* span, Tally* tally) {
    std::vector<Value> values(kAppendLength);
    std::normal_distribution<double> step(0.0, 1.0);
    std::uniform_real_distribution<double> start(20.0, 80.0);
    Value x = start(append_rng_);
    for (Value& v : values) {
      x += step(append_rng_);
      v = x;
    }
    const bool sentinel = (appends_ + 1) % kSentinelEvery == 0;
    if (sentinel) {
      std::copy(kSentinel.begin(), kSentinel.end(), values.begin() + 20);
      ++sentinels_;
    }
    const std::string body = "{\"values\":" + NumbersJson(values) + "}";
    const SeqId want = static_cast<SeqId>(db_.size() + appends_);
    ++appends_;
    appended_values_ += values.size();

    const Clock::time_point t0 = Clock::now();
    auto response = client_->Post("/append", body);
    const double ms = MsSince(t0);
    bool ok = response.ok() && response->status == 200;
    if (ok) {
      auto parsed = server::ParseJson(response->body);
      ok = parsed.ok() && parsed->Find("seq") != nullptr &&
           parsed->Find("seq")->AsNumber() == static_cast<double>(want);
    }
    if (span != nullptr) span->Count("sentinel", sentinel ? 1 : 0);
    Reconnect(response.ok());
    tally->Check(ok);
    return ms;
  }

  double Search(Tracer* tracer, const char* name, std::int64_t op,
                const std::string& body, Tally* tally) {
    const std::size_t tiers = tracer->enabled() ? handle_->Snapshot()->tiers().size() : 0;
    Tracer::Scope span = tracer->Begin(name, op);
    const Clock::time_point t0 = Clock::now();
    auto response = client_->Post("/search", body);
    const double ms = MsSince(t0);
    const bool ok = response.ok() && response->status == 200;
    if (ok && tracer->enabled()) {
      span.Count("response_bytes", static_cast<double>(response->body.size()));
      span.Count("tiers", static_cast<double>(tiers));
      Tracer::Scope parse = tracer->Begin("server.json_parse", op);
      auto parsed = server::ParseJson(response->body);
      parse.End();
      if (parsed.ok() && parsed->Find("count") != nullptr) {
        span.Count("answers", parsed->Find("count")->AsNumber());
      }
    }
    Reconnect(response.ok());
    tally->Check(ok);
    return ms;
  }

  bool BodyEquals(const std::string& request, const std::string& want) {
    auto response = client_->Post("/search", request);
    Reconnect(response.ok());
    return response.ok() && response->status == 200 && response->body == want;
  }

  void Reconnect(bool transport_ok) {
    if (transport_ok) return;
    auto client = server::HttpClient::Connect("127.0.0.1", server_->port());
    if (client.ok()) client_.emplace(std::move(*client));
  }

  void Teardown() {
    client_.reset();
    if (server_ != nullptr) server_->Shutdown();
    server_.reset();
    handle_.reset();
    tiered_.reset();
  }

  const std::uint64_t seed_;
  seqdb::SequenceDatabase db_;
  core::TieredOptions options_;
  // One query of each per cycle.
  std::vector<seqdb::Sequence> range_queries_;
  std::vector<seqdb::Sequence> knn_queries_;

  std::shared_ptr<core::TieredIndex> tiered_;
  std::unique_ptr<server::IndexHandle> handle_;
  std::unique_ptr<server::Server> server_;
  std::optional<server::HttpClient> client_;
  std::uint64_t continuous_id_ = 0;
  std::mt19937_64 append_rng_;
  std::size_t appends_ = 0;
  std::size_t sentinels_ = 0;
  std::size_t appended_values_ = 0;
  std::uint64_t merges_after_setup_ = 0;
  double index_bytes_per_input_byte_ = 0;
};

// --- main loop ------------------------------------------------------------

const char* FsTypeName(const std::string& dir) {
  struct statfs fs {};
  if (statfs(dir.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0x01021994UL: return "tmpfs";
    case 0xEF53UL: return "ext4";
    case 0x58465342UL: return "xfs";
    case 0x9123683EUL: return "btrfs";
    case 0x794C7630UL: return "overlayfs";
    case 0x6969UL: return "nfs";
    default: return "other";
  }
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir = ".";
  std::string spans;
};

/// Each op's latency: the least of its timings over the untraced timed
/// passes. On a shared host one op's timings spread by 1.3-2.3x over a
/// run while the sum of the per-op least times over a few passes repeats
/// within a few percent (see README.md), so percentiles and throughput are
/// taken over these.
std::vector<OpSample> BestPerOp(
    const std::vector<std::vector<OpSample>>& passes) {
  std::vector<OpSample> best = passes.front();
  for (const std::vector<OpSample>& pass : passes) {
    for (std::size_t i = 0; i < best.size(); ++i) {
      best[i].ms = std::min(best[i].ms, pass[i].ms);
    }
  }
  return best;
}

std::vector<double> Latencies(const std::vector<OpSample>& ops, OpKind kind) {
  std::vector<double> ms;
  for (const OpSample& op : ops) {
    if (op.kind == kind) ms.push_back(op.ms);
  }
  return ms;
}

int Run(const Args& args) {
  std::unique_ptr<Workload> workload;
  if (args.workload == "stock-sstc") {
    workload = MakeStock(args.seed, args.work_dir);
  } else if (args.workload == "ecg-disk") {
    workload = MakeEcg(args.seed, args.work_dir);
  } else if (args.workload == "serve-ingest") {
    workload = std::make_unique<ServeWorkload>(args.seed);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }

  Tracer tracer(args.trace);
  Tracer off(false);
  Tally tally;

  // Set-up: a few back-to-back set-ups; the median is setup_s and the last
  // one is served.
  const int setups = args.workload == "stock-sstc" ? 11 : 5;
  std::vector<double> setup_s;
  for (int i = 0; i < setups; ++i) {
    const Clock::time_point t0 = Clock::now();
    const Status status = workload->Setup(&tracer);
    setup_s.push_back(MsSince(t0) / 1e3);
    if (!status.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", status.ToString().c_str());
      return 1;
    }
  }

  // Warm-up: the first few cycles, untimed.
  std::vector<OpSample> warmup;
  workload->RunPass(&off, 0, kWarmupCycles, &warmup, &tally);

  // Timed passes over the same op list. A traced run alternates untraced
  // and traced passes and reads the tracing overhead off the pairs.
  tracer.set_phase("ops");
  const std::size_t min_passes = args.trace ? 4 : 2;
  const std::size_t max_passes =
      std::max(min_passes, workload->MaxPasses() * (args.trace ? 2 : 1));
  std::vector<std::vector<OpSample>> untraced;
  std::vector<double> untraced_pass_s;
  std::vector<double> traced_pass_s;
  std::vector<double> overhead;
  const Clock::time_point start = Clock::now();
  for (std::size_t pass = 0; pass < max_passes; ++pass) {
    // Stop before a pass that would likely end past the deadline.
    const double elapsed_ms = MsSince(start);
    const double mean_pass_ms = pass == 0 ? 0 : elapsed_ms / pass;
    if (pass >= min_passes && elapsed_ms + mean_pass_ms > args.seconds * 1e3) {
      break;
    }
    const bool traced = args.trace && pass % 2 == 1;
    std::vector<OpSample> samples;
    const Clock::time_point t0 = Clock::now();
    workload->RunPass(traced ? &tracer : &off, pass + 1, workload->Cycles(),
                      &samples, &tally);
    const double pass_s = MsSince(t0) / 1e3;
    std::fprintf(stderr, "pass %zu%s: %.3f s\n", pass,
                 traced ? " (traced)" : "", pass_s);
    if (traced) {
      overhead.push_back(pass_s / untraced_pass_s.back() - 1);
      traced_pass_s.push_back(pass_s);
    } else {
      untraced_pass_s.push_back(pass_s);
      untraced.push_back(std::move(samples));
    }
  }
  const double measured_s = MsSince(start) / 1e3;

  if (args.trace) {
    tracer.set_phase("diag");
    workload->Diagnose(&tracer);
    tracer.Event("trace.overhead", {{"ratio", Median(overhead)}});
  }
  tracer.set_phase("gate");
  workload->Gate(&tracer, &tally);
  workload->Gauges(&tracer);

  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  const double peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;

  const std::vector<OpSample> best = BestPerOp(untraced);
  const std::vector<double> range = Latencies(best, OpKind::kRange);
  const std::vector<double> knn = Latencies(best, OpKind::kKnn);
  const std::vector<double> append = Latencies(best, OpKind::kAppend);
  double best_pass_ms = 0;
  for (const OpSample& op : best) best_pass_ms += op.ms;
  const double ops_per_s =
      static_cast<double>(best.size()) / (best_pass_ms / 1e3);

  if (args.trace && !args.spans.empty() && !tracer.WriteJsonLines(args.spans)) {
    std::fprintf(stderr, "cannot write spans to %s\n", args.spans.c_str());
    return 1;
  }

  std::printf(
      "{\"workload\":\"%s\",\"seed\":%llu,\"trace\":%d,"
      "\"attempted\":%llu,\"failed\":%llu,"
      "\"metrics\":{\"setup_s\":%.9g,\"range_p50_ms\":%.9g,"
      "\"range_p90_ms\":%.9g,\"knn_p50_ms\":%.9g,\"knn_p90_ms\":%.9g,"
      "\"ops_per_s\":%.9g,\"index_bytes_per_input_byte\":%.9g,"
      "\"peak_rss_mb\":%.9g},"
      "\"append\":{\"append_p50_ms\":%.9g,\"append_p90_ms\":%.9g},"
      "\"samples\":{\"setups\":%d,\"passes\":%zu,\"traced_passes\":%zu,"
      "\"range\":%zu,\"knn\":%zu,\"append\":%zu,\"measured_s\":%.3f},"
      "\"stamp\":{\"simd_backend\":\"%s\",\"build_type\":\"%s\","
      "\"bundle_fs\":\"%s\"}}\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      args.trace ? 1 : 0, static_cast<unsigned long long>(tally.attempted),
      static_cast<unsigned long long>(tally.failed), Median(setup_s),
      Percentile(range, 0.5), Percentile(range, 0.9), Percentile(knn, 0.5),
      Percentile(knn, 0.9), ops_per_s, workload->IndexBytesPerInputByte(),
      peak_rss_mb, Percentile(append, 0.5), Percentile(append, 0.9), setups,
      untraced_pass_s.size(), traced_pass_s.size(), range.size(), knn.size(),
      append.size(),
      measured_s, dtw::simd::ActiveBackend(), PERFBENCH_BUILD_TYPE,
      FsTypeName(args.work_dir));
  return 0;
}

}  // namespace
}  // namespace tswarp::perfbench

int main(int argc, char** argv) {
  tswarp::perfbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--spans") {
      args.spans = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  return tswarp::perfbench::Run(args);
}
