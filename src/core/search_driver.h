#ifndef TSWARP_CORE_SEARCH_DRIVER_H_
#define TSWARP_CORE_SEARCH_DRIVER_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <limits>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/cancellation.h"
#include "common/logging.h"
#include "common/task_scheduler.h"
#include "common/types.h"
#include "core/match.h"
#include "core/result_collector.h"
#include "dtw/envelope.h"
#include "dtw/warping_table.h"
#include "suffixtree/tree_view.h"

namespace tswarp::core {

/// The branch-and-bound DFS shared by every suffix-tree similarity search
/// in the system. The paper's three algorithms (SimSearch-ST, -ST_C,
/// -SST_C) and the Section 8 multivariate extension are one traversal with
/// different per-row distance rules; SearchDriver<Model> is that traversal,
/// and the rules live in a small *distance model*:
///
///   struct Model {
///     /// Rows are exact distances: LastColumn() is already D_tw and
///     /// matches are emitted without a verification pass. false for
///     /// every lower-bound filter model.
///     static constexpr bool kExactRows;
///
///     /// FirstRowLb: D_base-lb(Q[1], symbol) — the first-row lower bound
///     /// fixed at the root branch (Definition 4). Feeds the sparse
///     /// pruning discount (MaxRun-1) * FirstRowLb and the D_tw-lb2
///     /// recovery of non-stored suffixes.
///     Value FirstRowLb(Symbol s) const;
///
///     /// RowStep: appends the cumulative-table row for one edge symbol
///     /// (exact base distances, category-interval D_tw-lb rows, or
///     /// multivariate grid-cell bounds).
///     void RowStep(dtw::WarpingTable* table, Symbol s) const;
///
///     /// The rest is only called when !kExactRows.
///
///     /// The first-symbol lower bound of the *stored* suffix at occ,
///     /// recomputed from the raw data (D_tw-lb2, Definition 4): screens
///     /// the non-stored starts inside its leading run on sparse trees.
///     Value OccurrenceFirstLb(const suffixtree::OccurrenceRec& occ) const;
///
///     /// ResolveStart: the exact verification of one start — every
///     /// length of S_seq[start:] whose exact distance is <= eps(),
///     /// reported as report(len, distance) — through core::ScanStart
///     /// (seq_scan.h) with the model's own rows and running bound, in
///     /// the worker's fixed-size scan table. Bumps the per-start
///     /// counters and scan_rows in *stats.
///     template <typename EpsFn, typename ReportFn>
///     void ResolveStart(SeqId seq, Pos start, dtw::ScanTable* table,
///                       EpsFn eps, ReportFn report,
///                       SearchStats* stats) const;
///   };
///
/// Exact-row models report every occurrence below each row whose
/// distance is within the threshold. Lower-bound models instead stop at
/// the first row on a path that passes the filter and resolve the
/// child's whole subtree there: every start below it (and, on sparse
/// trees, every non-stored start inside a stored suffix's leading run)
/// is scanned once with ResolveStart, which finds all of that start's
/// answers, so nothing below the edge is descended and each start is
/// scanned at most once (docs/algorithms.md, "Subtree resolution").
///
/// k-NN searches on lower-bound models first seed the threshold (see
/// Worker::SeedKnn) so that the first subtree resolved already prunes
/// against a finite bound.
///
/// Three instantiations cover the repo: ExactModel (symbol values),
/// CategoryModel (D_tw-lb intervals; on sparse trees also the D_tw-lb2
/// recovery, selected by DriverConfig::sparse), and the multivariate
/// GridCellModel. One kernel means every capability — Theorem-1 pruning,
/// the root-branch parallel fan-out, k-NN branch-and-bound, Sakoe-Chiba
/// bands, the running lower bound — reaches all of them at once.
struct DriverConfig {
  const suffixtree::TreeView* tree = nullptr;

  /// Query length in elements (table width). For multivariate queries this
  /// is the element count, not the flattened value count.
  std::size_t query_length = 0;

  /// Raw univariate query values (length == query_length), bound to each
  /// worker's table so models can use the typed SIMD row-step paths
  /// (PushRowValue / PushRowInterval). Empty for multivariate queries,
  /// whose base distances are not derivable from a Value span.
  std::span<const Value> query = {};

  /// Expected DFS depth (rows simultaneously live in a worker's table);
  /// pre-sizes the table's cell storage. 0 = use the table's default.
  std::size_t depth_hint = 0;

  /// Sparse tree (SST_C): discount the Theorem-1 bound by
  /// (MaxRun-1) * FirstRowLb and recover non-stored suffixes via D_tw-lb2.
  bool sparse = false;

  /// Theorem-1 branch pruning; disable only for the R_p ablation.
  bool prune = true;

  /// Sakoe-Chiba band (0 = unconstrained, the paper's setting). Rejected
  /// on sparse trees: the D_tw-lb2 shift argument does not hold once the
  /// band moves with the dropped leading symbols.
  Pos band = 0;

  /// Parallelism for one search. 0 = fully serial (single-table DFS, no
  /// scheduler involvement); >= 1 ensures the process-wide scheduler has
  /// at least that many persistent workers and fans the traversal out
  /// once, at the root: its edges are cut into at most
  /// kRangesPerThread * num_threads contiguous ranges, one task each. No
  /// OS thread is created per search once the scheduler is warm. Results
  /// are identical to serial for both range and k-NN searches (see
  /// docs/parallel_search.md).
  std::size_t num_threads = 0;

  /// Cooperative cancellation: when non-null every worker polls the token
  /// every kCancelPollRows rows/candidates and abandons its traversal once
  /// it expires, marking SearchStats::cancelled. Reported matches stay
  /// exact — stopping early can only drop answers, never fabricate or
  /// falsely dismiss one among the work actually completed — and the
  /// scheduler, arenas, and collector remain reusable afterwards (queued
  /// branch tasks still run; they just return immediately).
  const CancelToken* cancel = nullptr;

  /// Added to every reported Match::seq. Tiered searches run one driver
  /// per tier over tier-local sequence ids (the tier's own database
  /// fragment); the offset rebases matches to global ids at report time,
  /// so the shared collector's ordering and k-NN tie-breaks see the same
  /// ids a monolithic index would produce. Occurrence ids stay tier-local
  /// throughout the traversal and verification (database lookups).
  SeqId seq_base = 0;
};

/// Per-query shared state, owned for the query's whole lifetime: the
/// shrinking threshold and result set (collector), the merged traversal
/// stats, and the query envelope slot of the univariate running lower
/// bound. Models with a different envelope type (the multivariate
/// per-dimension set) own theirs alongside the context. `stats` is
/// written only single-threaded: serially, or at join time when the
/// per-range workers are drained — no mutex on the merge path.
class QueryContext {
 public:
  QueryContext(Value epsilon, std::size_t knn_k)
      : collector(epsilon, knn_k) {}

  QueryContext(const QueryContext&) = delete;
  QueryContext& operator=(const QueryContext&) = delete;

  /// Query envelope of the univariate running lower bound; non-null iff
  /// the bound is active for this search. Built once per query (it
  /// depends only on (query, band)) and shared read-only by every worker.
  std::unique_ptr<const dtw::QueryEnvelope> envelope;

  ResultCollector collector;

  /// Merged traversal stats. Serial searches write it directly; parallel
  /// searches merge the per-range workers into it after the task scope
  /// joins, so no concurrent access ever happens.
  SearchStats stats;
};

/// Reusable per-thread worker arena: the cumulative warping table (the
/// dominant allocation — depth_hint * |Q| cells), the two-row scan table
/// of subtree resolution (fixed at 2 * (|Q| + 1) cells, never regrown),
/// and the traversal buffers. Arenas are cached per thread keyed by the
/// table shape, so a batch of same-length queries reuses warm tables
/// across queries and the hot path performs no allocations once the
/// cache is primed.
struct SearchArena {
  SearchArena(std::size_t query_length, Pos band, std::size_t depth_hint)
      : table(query_length, band, depth_hint),
        scan(query_length, band),
        key_query_length(query_length),
        key_band(band),
        key_depth_hint(depth_hint) {}

  bool Matches(std::size_t query_length, Pos band,
               std::size_t depth_hint) const {
    return key_query_length == query_length && key_band == band &&
           key_depth_hint == depth_hint;
  }

  dtw::WarpingTable table;
  dtw::ScanTable scan;
  std::vector<suffixtree::OccurrenceRec> occ_buf;
  suffixtree::SubtreeScratch occ_scratch;
  // Per-depth children buffers, reused across traversals so descending
  // performs no per-node allocations once warmed up.
  std::vector<suffixtree::Children> children_stack;

  std::size_t key_query_length;
  Pos key_band;
  std::size_t key_depth_hint;
};

namespace internal {

/// Thread-local arena cache shared by Acquire/Release below. A handful of
/// entries suffices: distinct shapes in flight on one thread are rare
/// (different query lengths in one interleaved batch).
inline constexpr std::size_t kMaxCachedArenas = 4;

inline std::vector<std::unique_ptr<SearchArena>>& ThreadArenaCache() {
  thread_local std::vector<std::unique_ptr<SearchArena>> cache;
  return cache;
}

}  // namespace internal

/// Pops a shape-matching arena from the calling thread's cache, or builds
/// a fresh one. Each thread touches only its own cache: no locks, and an
/// arena is only ever used by the thread that acquired it.
inline std::unique_ptr<SearchArena> AcquireSearchArena(
    std::size_t query_length, Pos band, std::size_t depth_hint) {
  auto& cache = internal::ThreadArenaCache();
  for (auto it = cache.begin(); it != cache.end(); ++it) {
    if ((*it)->Matches(query_length, band, depth_hint)) {
      std::unique_ptr<SearchArena> arena = std::move(*it);
      cache.erase(it);
      return arena;
    }
  }
  return std::make_unique<SearchArena>(query_length, band, depth_hint);
}

/// Returns an arena to the calling thread's cache, evicting the oldest
/// entry beyond the cap.
inline void ReleaseSearchArena(std::unique_ptr<SearchArena> arena) {
  auto& cache = internal::ThreadArenaCache();
  if (cache.size() >= internal::kMaxCachedArenas) cache.erase(cache.begin());
  cache.push_back(std::move(arena));
}

template <typename Model>
class SearchDriver {
 public:
  /// A parallel search cuts the root's edges into at most this many
  /// ranges per thread: enough slack that the FIFO queue evens out root
  /// branches of very different sizes, few enough that the per-task
  /// GetChildren of the root stays negligible on wide (ST) roots.
  static constexpr std::size_t kRangesPerThread = 4;

  /// `config` and `model` must outlive the driver; models are stateless,
  /// so every worker shares `model`.
  SearchDriver(const DriverConfig& config, const Model& model)
      : config_(config), model_(model) {
    TSW_CHECK(config.tree != nullptr);
    TSW_CHECK(config.query_length > 0);
    TSW_CHECK(!(config.sparse && config.band != 0))
        << "banded search is unsupported on sparse indexes: the D_tw-lb2 "
           "shift argument does not hold once the band moves with the "
           "dropped leading symbols (build a dense index instead)";
  }

  /// Runs the traversal against `ctx` and drains this driver's answers
  /// into the shared collector and its traversal counters into
  /// `*stats_sink` — without consuming the collector. Tiered searches
  /// call RunInto once per tier against one shared QueryContext (one
  /// shrinking epsilon across tiers) with per-tier stats sinks, then
  /// Take() the merged result once; each sink is written only by this
  /// call, so concurrent per-tier drivers never touch shared stats.
  void RunInto(QueryContext* ctx, SearchStats* stats_sink) {
    if (config_.num_threads == 0) {
      Worker worker(config_, model_, ctx, /*parallel=*/false);
      if constexpr (!Model::kExactRows) {
        if (ctx->collector.knn()) worker.SeedKnn();
      }
      worker.Run(0, std::numeric_limits<std::size_t>::max());
      worker.Drain(stats_sink);
      return;
    }
    if constexpr (!Model::kExactRows) {
      if (ctx->collector.knn()) {
        // Seeded serially, before the fan-out: every parallel worker's
        // cached threshold then starts from the seeded value.
        Worker seeder(config_, model_, ctx, /*parallel=*/false);
        seeder.SeedKnn();
        seeder.Drain(stats_sink);
      }
    }
    // One split, at the root: every root branch is an independent
    // subproblem (its first-row bound is fixed there, Definition 4), so
    // contiguous edge ranges need no shared table prefix.
    Children root;
    config_.tree->GetChildren(config_.tree->Root(), &root);
    const std::size_t threads =
        std::min(config_.num_threads, TaskScheduler::kMaxWorkers);
    const std::vector<std::size_t> cuts = CutRootEdges(
        root, ctx->collector.epsilon(), kRangesPerThread * threads);
    TaskScheduler::Get().EnsureWorkers(config_.num_threads);
    std::deque<Worker> workers;  // Outlives the scope's tasks.
    TaskScope scope;
    for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
      Worker* worker = &workers.emplace_back(config_, model_, ctx,
                                             /*parallel=*/true);
      scope.Submit([worker, lo = cuts[i], hi = cuts[i + 1]] {
        worker->Run(lo, hi);
      });
    }
    scope.Wait();  // Rethrows the first task exception, if any.
    for (Worker& worker : workers) worker.Drain(stats_sink);
    stats_sink->tasks_executed += scope.tasks_executed();
    stats_sink->tasks_stolen += scope.tasks_stolen();
  }

  /// Runs the search against `ctx` (freshly constructed for this query)
  /// and returns the sorted answers; fills *stats when non-null.
  std::vector<Match> Run(QueryContext* ctx, SearchStats* stats) {
    RunInto(ctx, &ctx->stats);
    std::vector<Match> answers = ctx->collector.Take();
    ctx->stats.answers = answers.size();
    if (stats != nullptr) *stats = ctx->stats;
    return answers;
  }

 private:
  using Children = suffixtree::Children;
  using NodeId = suffixtree::NodeId;
  using OccurrenceRec = suffixtree::OccurrenceRec;

  /// The sparse pruning discount of the edge into `child`: a non-stored
  /// suffix under this branch may skip up to MaxRun-1 leading symbols,
  /// each worth at most first_lb of distance (Definition 4). 0 on dense
  /// trees.
  static Value SparseDiscount(const DriverConfig& config, NodeId child,
                              Value first_lb) {
    if (!config.sparse) return 0.0;
    const Pos max_run = config.tree->MaxRun(child);
    return max_run > 1 ? static_cast<Value>(max_run - 1) * first_lb : 0.0;
  }

  /// Cuts the root's edges into at most `max_ranges` contiguous ranges of
  /// about equal estimated work and returns the boundaries: range i is
  /// edges [cuts[i], cuts[i+1]). An edge whose first row already fails
  /// Theorem 1 at `eps` weighs 1; any other edge weighs 1 plus the
  /// suffixes stored below it. Query work concentrates in the few root
  /// branches near Q[1], and an equal edge count would often put two of
  /// them in one range. An edgeless root still gets one range, which
  /// counts the root's visit.
  std::vector<std::size_t> CutRootEdges(const Children& root, Value eps,
                                        std::size_t max_ranges) const {
    const std::size_t edges = root.edges.size();
    std::vector<std::uint64_t> work(edges + 1, 0);  // Prefix sums.
    for (std::size_t e = 0; e < edges; ++e) {
      const Children::Edge& edge = root.edges[e];
      const Value first_lb = model_.FirstRowLb(root.Label(edge).front());
      const bool cut =
          first_lb - SparseDiscount(config_, edge.child, first_lb) > eps;
      work[e + 1] = work[e] + 1 +
                    (cut ? 0 : config_.tree->SubtreeOccCount(edge.child));
    }
    const std::size_t ranges = std::clamp<std::size_t>(edges, 1, max_ranges);
    std::vector<std::size_t> cuts = {0};
    for (std::size_t i = 1; i < ranges; ++i) {
      const std::uint64_t target = work[edges] * i / ranges;
      const auto c = static_cast<std::size_t>(
          std::lower_bound(work.begin(), work.end(), target) - work.begin());
      if (c > cuts.back() && c < edges) cuts.push_back(c);
    }
    cuts.push_back(edges);
    return cuts;
  }

  /// Per-(query, root-edge range) search state: private stats, an
  /// epsilon cache, and (range mode) a private answer vector published
  /// once at drain. The heavy arena (tables + traversal buffers) is
  /// borrowed from the executing thread's cache for each run, so it is
  /// reused across queries, not just across this query's tasks. A serial
  /// search is one worker over every root edge.
  class Worker {
   public:
    Worker(const DriverConfig& config, const Model& model,
           QueryContext* ctx, bool parallel)
        : config_(config),
          model_(model),
          collector_(ctx->collector),
          eps_mode_(!ctx->collector.knn() ? EpsMode::kFixed
                    : parallel            ? EpsMode::kCached
                                          : EpsMode::kExact),
          eps_cache_(ctx->collector.epsilon()) {}

    /// Traverses root edges [edge_lo, edge_hi) and every subtree below
    /// them.
    void Run(std::size_t edge_lo, std::size_t edge_hi) {
      if (config_.cancel != nullptr &&
          (cancel_seen_ || config_.cancel->Expired())) {
        // The query is already dead: skip the whole range. Queued tasks
        // drain through here, leaving the scheduler free for the next
        // query immediately.
        cancel_seen_ = true;
        stats_.cancelled = 1;
        return;
      }
      ArenaLease lease(config_, ResolvedDepthHint());
      SearchArena& arena = *lease.arena;
      const std::uint64_t cells_before = arena.table.cells_computed();
      Traverse(arena, edge_lo, edge_hi);
      stats_.cells_computed += arena.table.cells_computed() - cells_before;
    }

    /// Seeds the k-NN threshold before the DFS (docs/algorithms.md, "k-NN
    /// (extension)"). A greedy dive from the root follows, among the
    /// children with at least k stored suffixes below them, the one whose
    /// first label row has the least RowMin() (the first in stored order on
    /// a tie), pushing its label, until |Q| rows are on the table or no
    /// child qualifies. The stored starts below the reached node are then
    /// scanned exactly, into a private collector, under the smaller of its
    /// threshold and the shared one. k matches there are k distinct real
    /// subsequences whose distances come from the same ScanStart
    /// recurrence the DFS runs, so their k-th distance bounds the true k-th
    /// from above and may lower the shared threshold; every answer and
    /// every tie at the k-th distance still passes `dist <= eps`. The
    /// matches stay out of the shared heap: the DFS reports them again.
    /// Lower-bound models only: exact-row models verify nothing.
    void SeedKnn() {
      const std::size_t k = collector_.knn_k();
      if (CancelledNow()) return;
      ArenaLease lease(config_, ResolvedDepthHint());
      SearchArena& arena = *lease.arena;
      dtw::WarpingTable& table = arena.table;
      const suffixtree::TreeView& tree = *config_.tree;
      const std::uint64_t cells_before = table.cells_computed();
      auto push = [&](Symbol sym, std::uint32_t occs) {
        model_.RowStep(&table, sym);
        ++stats_.rows_pushed;
        stats_.unshared_rows += occs;
      };
      NodeId node = tree.Root();
      Children& children = ChildrenAt(arena, 0);
      while (table.NumRows() < config_.query_length) {
        tree.GetChildren(node, &children);
        const Children::Edge* best = nullptr;
        Value best_min = kInfinity;
        for (const Children::Edge& edge : children.edges) {
          const std::uint32_t occs = tree.SubtreeOccCount(edge.child);
          if (occs < k) continue;
          push(children.Label(edge).front(), occs);
          if (best == nullptr || table.RowMin() < best_min) {
            best = &edge;
            best_min = table.RowMin();
          }
          table.PopRows(1);
        }
        if (best == nullptr) break;
        const std::uint32_t occs = tree.SubtreeOccCount(best->child);
        for (const Symbol sym : children.Label(*best)) {
          if (table.NumRows() == config_.query_length) break;
          push(sym, occs);
        }
        node = best->child;
      }
      stats_.cells_computed += table.cells_computed() - cells_before;
      // Below the root every stored start qualifies: scanning them all at
      // an unbounded threshold would cost more than the DFS it seeds.
      if (node == tree.Root()) return;

      arena.occ_buf.clear();
      tree.CollectSubtreeOccurrences(node, &arena.occ_buf,
                                     &arena.occ_scratch);
      ResultCollector seed(kInfinity, k);
      for (const OccurrenceRec& occ : arena.occ_buf) {
        if (CancelledNow()) return;
        model_.ResolveStart(
            occ.seq, occ.pos, &arena.scan,
            [&] { return std::min(seed.epsilon(), collector_.epsilon()); },
            [&](Pos len, Value d) {
              seed.Report({occ.seq, occ.pos, len, d}, nullptr);
            },
            &stats_);
      }
      const std::vector<Match> found = seed.Take();
      if (found.size() == k) collector_.Tighten(found.back().distance);
    }

    /// Publishes this worker's answers into the shared collector and its
    /// stats into `*sink`. Called single-threaded (serially, or after the
    /// scope joined).
    void Drain(SearchStats* sink) {
      collector_.DrainRange(&answers_);
      sink->Merge(stats_);
    }

   private:
    /// Refresh the cached k-NN epsilon from the shared atomic once per
    /// this many Eps() polls. Staleness only loosens pruning (the shared
    /// threshold shrinks monotonically), never correctness.
    static constexpr std::uint32_t kEpsRefreshPolls = 64;

    /// Consult the CancelToken once per this many abort polls (rows
    /// pushed / starts resolved). Each row costs O(|Q|) cells, so the
    /// reaction latency is tens of row computations — milliseconds — while
    /// the steady-state cost is one counter increment per row.
    static constexpr std::uint32_t kCancelPollRows = 32;

    enum class EpsMode {
      kFixed,   // Range mode: the threshold never changes — no loads.
      kExact,   // Serial k-NN: always read the shared atomic.
      kCached,  // Parallel k-NN: cached, refreshed periodically.
    };

    /// This thread's arena for one run or seed, its table reset and bound
    /// to the query; returned to the cache even if a model call throws.
    struct ArenaLease {
      ArenaLease(const DriverConfig& config, std::size_t depth_hint)
          : arena(AcquireSearchArena(config.query_length, config.band,
                                     depth_hint)) {
        arena->table.Reset();
        if (!config.query.empty()) {
          arena->table.BindQuery(config.query);
          arena->scan.BindQuery(config.query);
        }
      }
      ~ArenaLease() { ReleaseSearchArena(std::move(arena)); }
      ArenaLease(const ArenaLease&) = delete;
      ArenaLease& operator=(const ArenaLease&) = delete;

      std::unique_ptr<SearchArena> arena;
    };

    struct Frame {
      NodeId node;
      Value first_lb;          // Inherited branch first-symbol lower bound.
      std::size_t edge = 0;    // Next edge index to process.
      std::size_t pushed = 0;  // Rows pushed for the edge being descended.
      std::size_t limit = 0;   // One past the last edge this task owns.
    };

    std::size_t ResolvedDepthHint() const {
      return config_.depth_hint != 0 ? config_.depth_hint
                                     : dtw::WarpingTable::kDefaultDepthHint;
    }

    /// The cooperative abort poll. Latches the first expiry into
    /// cancel_seen_ (and the stats) so later polls are one branch.
    bool ShouldAbort() {
      if (config_.cancel == nullptr) return false;
      if (cancel_seen_) return true;
      if (++cancel_polls_ < kCancelPollRows) return false;
      cancel_polls_ = 0;
      if (!config_.cancel->Expired()) return false;
      cancel_seen_ = true;
      stats_.cancelled = 1;
      return true;
    }

    /// The seed's unthrottled abort poll: it scans few starts, so it reads
    /// the token before each one.
    bool CancelledNow() {
      if (config_.cancel == nullptr || !config_.cancel->Expired()) {
        return false;
      }
      cancel_seen_ = true;
      stats_.cancelled = 1;
      return true;
    }

    Value Eps() {
      switch (eps_mode_) {
        case EpsMode::kFixed:
          return eps_cache_;
        case EpsMode::kExact:
          return collector_.epsilon();
        case EpsMode::kCached:
          if (++eps_polls_ >= kEpsRefreshPolls) {
            eps_polls_ = 0;
            eps_cache_ = collector_.epsilon();
          }
          return eps_cache_;
      }
      return eps_cache_;
    }

    Children& ChildrenAt(SearchArena& arena, std::size_t depth) {
      if (arena.children_stack.size() <= depth) {
        arena.children_stack.resize(depth + 1);
      }
      return arena.children_stack[depth];
    }

    void PushFrame(SearchArena& arena, NodeId node, Value first_lb,
                   std::size_t edge_lo, std::size_t edge_hi) {
      // The root's visit is attributed to the range starting at its first
      // edge, so a root split across tasks is still counted once.
      if (edge_lo == 0) ++stats_.nodes_visited;
      frames_.push_back({node, first_lb, edge_lo, 0, 0});
      Children& children = ChildrenAt(arena, frames_.size() - 1);
      config_.tree->GetChildren(node, &children);
      frames_.back().limit = std::min(edge_hi, children.edges.size());
    }

    /// Iterative DFS over root edges [edge_lo, edge_hi); every deeper
    /// node is traversed in full (unless pruned or resolved at a passing
    /// row).
    void Traverse(SearchArena& arena, std::size_t edge_lo,
                  std::size_t edge_hi) {
      dtw::WarpingTable& table = arena.table;
      frames_.clear();
      PushFrame(arena, config_.tree->Root(), 0.0, edge_lo, edge_hi);
      while (!frames_.empty()) {
        Frame& f = frames_.back();
        Children& children = ChildrenAt(arena, frames_.size() - 1);
        if (f.edge >= f.limit) {
          frames_.pop_back();
          if (!frames_.empty()) {
            table.PopRows(frames_.back().pushed);
            frames_.back().pushed = 0;
            ++frames_.back().edge;
          }
          continue;
        }

        const Children::Edge& edge = children.edges[f.edge];
        const std::span<const Symbol> label = children.Label(edge);
        const bool at_root = table.Empty();
        Value branch_first_lb = f.first_lb;
        if (at_root) branch_first_lb = model_.FirstRowLb(label.front());
        const Value discount =
            SparseDiscount(config_, edge.child, branch_first_lb);

        std::size_t pushed = 0;
        bool descend = true;
        // Occurrences below this edge are the same at every depth along
        // it; collect them at most once per edge.
        arena.occ_buf.clear();
        bool occ_collected = false;
        for (const Symbol sym : label) {
          if (ShouldAbort()) {
            // Deadline/cancel fired: abandon the whole range. The arena is
            // released by Run's lease and Reset on its next use, so
            // no unwinding of pushed rows is needed.
            frames_.clear();
            return;
          }
          model_.RowStep(&table, sym);
          ++pushed;
          ++stats_.rows_pushed;
          stats_.unshared_rows += config_.tree->SubtreeOccCount(edge.child);
          const Value dist = table.LastColumn();
          if constexpr (Model::kExactRows) {
            if (dist <= Eps()) {
              if (!occ_collected) {
                config_.tree->CollectSubtreeOccurrences(
                    edge.child, &arena.occ_buf, &arena.occ_scratch);
                occ_collected = true;
              }
              EmitExactRows(arena, dist);
            }
          } else if (dist <= Eps() ||
                     (config_.sparse && dist - discount <= Eps())) {
            // The first passing row on this path: every answer below the
            // edge starts at one of its occurrences (or inside one's
            // leading run), so scan those starts and skip the subtree.
            config_.tree->CollectSubtreeOccurrences(
                edge.child, &arena.occ_buf, &arena.occ_scratch);
            ResolveSubtree(arena);
            descend = false;
            break;
          }
          if (config_.prune && table.RowMin() - discount > Eps()) {
            // Theorem 1: no extension can recover. Skip the rest of this
            // edge and the whole subtree.
            ++stats_.branches_pruned;
            descend = false;
            break;
          }
        }
        if (descend) {
          f.pushed = pushed;
          PushFrame(arena, edge.child, branch_first_lb, 0,
                    std::numeric_limits<std::size_t>::max());
        } else {
          table.PopRows(pushed);
          ++f.edge;
        }
      }
    }

    /// Exact-row models: a prefix of depth NumRows() is within the
    /// threshold at distance `dist`; every occurrence below the edge
    /// (pre-collected into arena.occ_buf) is an answer of that length.
    void EmitExactRows(SearchArena& arena, Value dist) {
      const auto depth = static_cast<Pos>(arena.table.NumRows());
      for (const OccurrenceRec& occ : arena.occ_buf) {
        ++stats_.candidates;
        Report({occ.seq, occ.pos, depth, dist});
      }
    }

    /// Lower-bound models: the current row is the first on its path to
    /// pass the filter. Scans every start below the edge (arena.occ_buf)
    /// once with the model's exact ResolveStart, which reports all of the
    /// start's answers, whatever their length. On sparse trees each
    /// stored suffix also stands for the non-stored starts occ.pos + delta
    /// inside its leading run (delta < occ.run, D_tw-lb2 of Definition 4).
    /// A start needs no scan when the row's minimum, discounted by the
    /// delta skipped symbols, already exceeds the threshold: by Theorem 1
    /// no length reaching this depth or beyond can pass, and every shorter
    /// length failed the filter on an earlier row (whose discount covered
    /// delta symbols at least).
    void ResolveSubtree(SearchArena& arena) {
      const Value row_min = arena.table.RowMin();
      for (const OccurrenceRec& occ : arena.occ_buf) {
        // One resolution can scan thousands of starts; poll per start so
        // a deadline interrupts it, not just the traversal.
        if (ShouldAbort()) return;
        const Pos starts = config_.sparse ? occ.run : 1;
        const Value first_lb =
            config_.sparse ? model_.OccurrenceFirstLb(occ) : 0.0;
        for (Pos delta = 0; delta < starts; ++delta) {
          if (config_.sparse &&
              dtw::LowerBound2(row_min, delta, first_lb) > Eps()) {
            continue;
          }
          const Pos start = occ.pos + delta;
          model_.ResolveStart(
              occ.seq, start, &arena.scan, [this] { return Eps(); },
              [&](Pos len, Value d) { Report({occ.seq, start, len, d}); },
              &stats_);
        }
      }
    }

    void Report(Match m) {
      // Rebase tier-local sequence ids to global ids before the match
      // enters the shared ordering (range sort and k-NN tie-breaks).
      m.seq += config_.seq_base;
      collector_.Report(m, &answers_);
      // A k-NN report may have shrunk the shared threshold; fold it into
      // the cache immediately so this worker prunes with its own result.
      if (eps_mode_ == EpsMode::kCached) eps_cache_ = collector_.epsilon();
    }

    const DriverConfig& config_;
    const Model& model_;
    ResultCollector& collector_;
    const EpsMode eps_mode_;
    Value eps_cache_;
    std::uint32_t eps_polls_ = 0;
    std::uint32_t cancel_polls_ = 0;
    bool cancel_seen_ = false;
    std::vector<Frame> frames_;
    std::vector<Match> answers_;
    SearchStats stats_;
  };

  const DriverConfig& config_;
  const Model& model_;
};

}  // namespace tswarp::core

#endif  // TSWARP_CORE_SEARCH_DRIVER_H_
