#ifndef TSWARP_CORE_SEARCH_DRIVER_H_
#define TSWARP_CORE_SEARCH_DRIVER_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "common/cancellation.h"
#include "common/logging.h"
#include "common/task_scheduler.h"
#include "common/types.h"
#include "core/match.h"
#include "core/result_collector.h"
#include "dtw/envelope.h"
#include "dtw/simd.h"
#include "dtw/warping_table.h"
#include "suffixtree/node_summary.h"
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
///     /// counters in *stats.
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
/// answers, so nothing below the edge is descended. Frames on the DFS
/// stack — the only thing lazy splitting hands out — therefore lie on
/// paths with no passing row, and each start is scanned at most once
/// (docs/algorithms.md, "Subtree resolution").
///
/// Four instantiations cover the repo: ExactModel (symbol values),
/// CategoryModel (D_tw-lb intervals), SparseCategoryModel (D_tw-lb +
/// D_tw-lb2 recovery), and the multivariate GridCellModel. One kernel
/// means every capability — Theorem-1 pruning, the work-stealing parallel
/// engine, k-NN branch-and-bound, Sakoe-Chiba bands, the running lower
/// bound — reaches all of them at once.
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
  /// scheduler involvement); >= 1 ensures the process-wide work-stealing
  /// scheduler has at least that many persistent workers and runs the
  /// traversal on it with lazy task splitting — the DFS owner splits off
  /// unexplored sibling edges only when an idle thread asks. No OS thread
  /// is created per search once the scheduler is warm. Results are
  /// identical to serial for both range and k-NN searches (see
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

  /// Node summaries of `tree`, indexed by NodeId (empty = no summary
  /// pre-filter). When present (and the model supports them), every edge
  /// is screened against the child's subtree hulls before any row is
  /// pushed: if the summary lower bound already exceeds the threshold,
  /// the whole subtree is skipped with zero GetChildren/row-step work.
  /// A true lower bound for every candidate below the edge, so results
  /// stay byte-identical (see docs/algorithms.md "Node-summary bound").
  std::span<const suffixtree::NodeSummaryRecord> summaries = {};

  /// Scales the summary bound before comparing against epsilon: the
  /// recall dial. 1.0 (default) is exact — the multiply is an IEEE
  /// identity, results are byte-identical to summaries-off. Values > 1
  /// prune more aggressively; the result is always a subset of the exact
  /// answer (bounds are only ever inflated, never deflated), with recall
  /// measured by bench/ablation_sketch. Must be >= 1.
  Value approx_factor = 1.0;
};

/// Per-query shared state, owned for the query's whole lifetime: the
/// shrinking threshold and result set (collector), the merged traversal
/// stats, and the query envelope slot of the univariate running lower
/// bound. Models with a different envelope type (the multivariate
/// per-dimension set) own theirs alongside the context. `stats` is
/// written only single-threaded: serially, or at join time when the
/// per-thread worker slots are drained — no mutex on the merge path.
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
  /// searches merge the per-thread worker slots into it after the task
  /// scope joins, so no concurrent access ever happens.
  SearchStats stats;
};

/// One unit of parallel work: process edges [edge_lo, edge_hi) of `node`
/// — push their label rows, emit or resolve, prune — and every subtree
/// below them. `prefix` holds the symbols on the root-to-`node` path
/// (nullptr = the node is the root); an executing thread replays them
/// into its table (no emission: those rows were already evaluated by the
/// task that split this one off) so depths, the Sakoe-Chiba band, and
/// Theorem-1 pruning see the true distance table. The prefix buffer is
/// shared, never copied per task: a split at the task's own start node
/// reuses the parent task's buffer, and deeper splits materialize one new
/// buffer from the live frame stack.
struct BranchTask {
  static constexpr std::uint32_t kAllEdges =
      std::numeric_limits<std::uint32_t>::max();

  std::shared_ptr<const std::vector<Symbol>> prefix;
  suffixtree::NodeId node = 0;
  std::uint32_t edge_lo = 0;
  std::uint32_t edge_hi = kAllEdges;
  /// D_base-lb(Q[1], first path symbol), fixed at the root branch
  /// (Definition 4); only read when `prefix` is non-empty.
  Value first_lb = 0.0;
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
  /// `config` and `model` must outlive the driver; models are stateless,
  /// so every worker shares `model`.
  SearchDriver(const DriverConfig& config, const Model& model)
      : config_(config), model_(model) {
    TSW_CHECK(config.tree != nullptr);
    TSW_CHECK(config.query_length > 0);
    TSW_CHECK(config.approx_factor >= 1.0)
        << "approx_factor scales the summary lower bound up; values below "
           "1 would deflate a bound and fabricate false dismissals";
    TSW_CHECK(config.summaries.empty() ||
              config.summaries.size() == config.tree->NumNodes())
        << "node summaries must cover every tree node";
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
      BranchTask root;
      root.node = config_.tree->Root();
      worker.RunTask(root, nullptr);
      worker.Drain(stats_sink);
    } else {
      TaskScheduler& scheduler = TaskScheduler::Get();
      scheduler.EnsureWorkers(config_.num_threads);
      const std::uint64_t probes_before = scheduler.steal_attempts();
      ParallelState par(config_, model_, ctx);
      BranchTask root;
      root.node = config_.tree->Root();
      par.Submit(std::move(root));
      par.scope.Wait();  // Rethrows the first task exception, if any.
      par.DrainAll(stats_sink);
      stats_sink->tasks_executed += par.scope.tasks_executed();
      stats_sink->tasks_stolen += par.scope.tasks_stolen();
      // Process-wide probe delta over the query window; concurrent
      // unrelated searches share the counter (documented in match.h).
      stats_sink->steal_attempts +=
          scheduler.steal_attempts() - probes_before;
    }
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

  struct ParallelState;

  /// Per-(query, executing thread) search state: private stats, an
  /// epsilon cache, and (range mode) a private answer vector published
  /// once at drain. The heavy arena (tables + traversal buffers) is
  /// borrowed from the thread-local cache for each task, so it is reused
  /// across queries, not just across this query's tasks. Serial searches use one worker and therefore
  /// identical semantics.
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
          eps_cache_(ctx->collector.epsilon()),
          use_summaries_(Model::kSupportsSummaries &&
                         !config.summaries.empty() && !config.query.empty()) {}

    /// Executes one branch task: replay the prefix, then traverse the
    /// edge range. `par` enables lazy splitting (nullptr = serial).
    void RunTask(const BranchTask& task, ParallelState* par) {
      if (config_.cancel != nullptr &&
          (cancel_seen_ || config_.cancel->Expired())) {
        // The query is already dead: skip the prefix replay and the whole
        // span. Queued tasks drain through here, leaving the scheduler
        // free for the next query immediately.
        cancel_seen_ = true;
        stats_.cancelled = 1;
        return;
      }
      std::unique_ptr<SearchArena> arena = AcquireSearchArena(
          config_.query_length, config_.band, ResolvedDepthHint());
      struct Return {  // Release even if a model call throws.
        std::unique_ptr<SearchArena>& a;
        ~Return() { ReleaseSearchArena(std::move(a)); }
      } release{arena};
      dtw::WarpingTable& table = arena->table;
      table.Reset();
      if (!config_.query.empty()) {
        table.BindQuery(config_.query);
        arena->scan.BindQuery(config_.query);
      }
      const std::uint64_t cells_before = table.cells_computed();
      // The prefix value hull restarts per task; the replay below widens
      // it to the hull of the replayed path, exactly as the splitting
      // task's own pushes did (BranchTask carries no hull state).
      path_lo_ = std::numeric_limits<Value>::infinity();
      path_hi_ = -std::numeric_limits<Value>::infinity();
      if (task.prefix != nullptr) {
        for (const Symbol sym : *task.prefix) {
          model_.RowStep(&table, sym);
          WidenPathHull(sym);
          ++stats_.replayed_rows;
        }
      }
      RunSpan(*arena, task, par);
      stats_.cells_computed += table.cells_computed() - cells_before;
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

    struct Frame {
      NodeId node;
      Value first_lb;          // Inherited branch first-symbol lower bound.
      std::size_t edge = 0;    // Next edge index to process.
      std::size_t pushed = 0;  // Rows pushed for the edge being descended.
      std::size_t limit = 0;   // One past the last edge this task owns.
      // Prefix value hull snapshot at frame entry. Popping a descended
      // edge's rows returns the table to this frame's entry state, so the
      // running hull is restored from here at the same points PopRows runs.
      Value hull_lo = std::numeric_limits<Value>::infinity();
      Value hull_hi = -std::numeric_limits<Value>::infinity();
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
      // A node's visit is attributed to the task starting at its first
      // edge, so nodes split across branch tasks are still counted once.
      if (edge_lo == 0) ++stats_.nodes_visited;
      frames_.push_back({node, first_lb, edge_lo, 0, 0, path_lo_, path_hi_});
      Children& children = ChildrenAt(arena, frames_.size() - 1);
      config_.tree->GetChildren(node, &children);
      frames_.back().limit = std::min(edge_hi, children.edges.size());
    }

    /// Builds the root-to-node prefix of frame `i` for a split task: the
    /// current task's prefix plus the labels of the edges this traversal
    /// descended through below it. Frame 0 shares the current buffer
    /// outright — no copy.
    std::shared_ptr<const std::vector<Symbol>> MaterializePrefix(
        const SearchArena& arena, std::size_t i) const {
      if (i == 0) return current_prefix_;
      auto out = std::make_shared<std::vector<Symbol>>();
      std::size_t total =
          current_prefix_ != nullptr ? current_prefix_->size() : 0;
      for (std::size_t j = 0; j < i; ++j) {
        const Children& c = arena.children_stack[j];
        total += c.Label(c.edges[frames_[j].edge]).size();
      }
      out->reserve(total);
      if (current_prefix_ != nullptr) {
        out->insert(out->end(), current_prefix_->begin(),
                    current_prefix_->end());
      }
      for (std::size_t j = 0; j < i; ++j) {
        const Children& c = arena.children_stack[j];
        const std::span<const Symbol> label =
            c.Label(c.edges[frames_[j].edge]);
        out->insert(out->end(), label.begin(), label.end());
      }
      return out;
    }

    /// Lazy split: hand an idle thread the unexplored sibling edges of
    /// the *shallowest* frame that still has any — the largest chunk of
    /// remaining work, one task, one GetChildren-free handoff. The
    /// owner's frame is truncated so every edge stays owned by exactly
    /// one task; replay cost is paid only on this actual steal.
    void TrySplit(SearchArena& arena, ParallelState* par) {
      for (std::size_t i = 0; i < frames_.size(); ++i) {
        Frame& f = frames_[i];
        if (f.edge + 1 >= f.limit) continue;
        BranchTask task;
        task.prefix = MaterializePrefix(arena, i);
        task.node = f.node;
        task.edge_lo = static_cast<std::uint32_t>(f.edge + 1);
        task.edge_hi = static_cast<std::uint32_t>(f.limit);
        task.first_lb = f.first_lb;
        f.limit = f.edge + 1;
        par->Submit(std::move(task));
        return;
      }
    }

    /// Iterative DFS over the task's edge range; every deeper node is
    /// traversed in full (unless split off to a thief mid-walk or
    /// resolved at a passing row).
    void RunSpan(SearchArena& arena, const BranchTask& task,
                 ParallelState* par) {
      dtw::WarpingTable& table = arena.table;
      frames_.clear();
      current_prefix_ = task.prefix;
      PushFrame(arena, task.node, task.first_lb, task.edge_lo, task.edge_hi);
      while (!frames_.empty()) {
        // The lazy-split poll: one relaxed load per DFS step. Only when
        // some thread is idle does the owner materialize a task.
        if (par != nullptr && par->scope.WantsWork()) TrySplit(arena, par);
        Frame& f = frames_.back();
        Children& children = ChildrenAt(arena, frames_.size() - 1);
        if (f.edge >= f.limit) {
          frames_.pop_back();
          if (!frames_.empty()) {
            table.PopRows(frames_.back().pushed);
            path_lo_ = frames_.back().hull_lo;
            path_hi_ = frames_.back().hull_hi;
            frames_.back().pushed = 0;
            ++frames_.back().edge;
          }
          continue;
        }

        const Children::Edge& edge = children.edges[f.edge];
        const std::span<const Symbol> label = children.Label(edge);
        // Node-summary screen: decide from the precomputed subtree hulls
        // whether any candidate below this edge can beat the threshold,
        // before a single row of the edge's label is stepped.
        if (use_summaries_ && SummaryPrune(edge.child, table.NumRows())) {
          ++f.edge;
          continue;
        }
        const bool at_root = table.Empty();
        Value branch_first_lb = f.first_lb;
        if (at_root) branch_first_lb = model_.FirstRowLb(label.front());
        // The sparse pruning discount: a non-stored suffix under this
        // branch may skip up to MaxRun-1 leading symbols, each worth at
        // most first_lb of distance (Definition 4).
        Value discount = 0.0;
        if (config_.sparse) {
          const Pos max_run = config_.tree->MaxRun(edge.child);
          if (max_run > 1) {
            discount = static_cast<Value>(max_run - 1) * branch_first_lb;
          }
        }

        std::size_t pushed = 0;
        bool descend = true;
        // Occurrences below this edge are the same at every depth along
        // it; collect them at most once per edge.
        arena.occ_buf.clear();
        bool occ_collected = false;
        for (const Symbol sym : label) {
          if (ShouldAbort()) {
            // Deadline/cancel fired: abandon the whole span. The arena is
            // released by RunTask's guard and Reset on its next use, so
            // no unwinding of pushed rows is needed.
            frames_.clear();
            return;
          }
          model_.RowStep(&table, sym);
          WidenPathHull(sym);
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
          path_lo_ = f.hull_lo;
          path_hi_ = f.hull_hi;
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

    /// Folds one path symbol's value hull into the running prefix hull.
    /// Called after every RowStep (replay and label walk alike) so the
    /// hull always covers exactly the rows live in the table. Compiled
    /// out for models without symbol hulls (multivariate).
    void WidenPathHull([[maybe_unused]] Symbol sym) {
      if constexpr (Model::kSupportsSummaries) {
        if (!use_summaries_) return;
        const auto iv = model_.SymbolHull(sym);
        path_lo_ = std::min(path_lo_, iv.lb);
        path_hi_ = std::max(path_hi_, iv.ub);
      }
    }

    /// The node-summary screen for the edge into `child`, evaluated at
    /// prefix depth `depth` (rows live in the table). Every candidate
    /// below the edge draws its elements from the prefix path, the
    /// edge's label, and the child's subtree — so each query element
    /// must align with *some* value inside one of those hulls, and
    /// sum_i min_hull IntervalDist(Q[i], hull) lower-bounds D_tw for
    /// all of them at once (docs/algorithms.md "Node-summary bound";
    /// the subset argument covers sparse dropped-prefix candidates).
    /// Returns true to skip the edge and its whole subtree.
    bool SummaryPrune(NodeId child, std::size_t depth) {
      const suffixtree::NodeSummaryRecord& rec = config_.summaries[child];
      // Banded length screen: a Sakoe-Chiba band makes any candidate
      // shorter than |Q| - band infinitely distant (no legal warping
      // path reaches the final cell). The longest candidate below this
      // edge has depth + max_depth elements.
      if (config_.band != 0 &&
          static_cast<std::uint64_t>(depth) + rec.max_depth + config_.band <
              config_.query_length) {
        ++stats_.nodes_pruned_by_summary;
        return true;
      }
      ++stats_.summary_lb_invocations;
      // Up to 6 hulls: prefix path, subtree, and the <= 4 label
      // segments. Empty hulls (lo > hi sentinels) are dropped; float
      // seg/sub bounds widen exactly to double.
      constexpr std::size_t kMaxHulls =
          2 + suffixtree::NodeSummaryRecord::kMaxLabelSegments;
      Value lo[kMaxHulls];
      Value hi[kMaxHulls];
      std::size_t k = 0;
      if (path_lo_ <= path_hi_) {
        lo[k] = path_lo_;
        hi[k] = path_hi_;
        ++k;
      }
      if (rec.sub_lo <= rec.sub_hi) {
        lo[k] = rec.sub_lo;
        hi[k] = rec.sub_hi;
        ++k;
      }
      for (std::uint32_t s = 0; s < rec.label_segments; ++s) {
        lo[k] = rec.seg_lo[s];
        hi[k] = rec.seg_hi[s];
        ++k;
      }
      if (k == 0) return false;  // Degenerate record: nothing to bound.
      // Same slackened threshold as the running lower bound, so FP drift
      // between the bound and the exact kernel cannot dismiss a boundary
      // candidate. The cap only lets the kernel abandon early — the
      // returned partial sum is still a lower bound, and the decision
      // below re-tests it against the same cut.
      const Value cut = dtw::LbPruneThreshold(Eps());
      const Value lb = dtw::simd::Kernels().summary_lb(
          config_.query.data(), lo, hi, k, config_.query_length,
          cut / config_.approx_factor);
      if (lb * config_.approx_factor > cut) {
        ++stats_.nodes_pruned_by_summary;
        return true;
      }
      return false;
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
    // Node-summary screen state: whether this search runs it, and the
    // running value hull of the path rows currently live in the table
    // (empty = +inf/-inf sentinels, matching node_summary.h).
    const bool use_summaries_;
    Value path_lo_ = std::numeric_limits<Value>::infinity();
    Value path_hi_ = -std::numeric_limits<Value>::infinity();
    std::vector<Frame> frames_;
    std::shared_ptr<const std::vector<Symbol>> current_prefix_;
    std::vector<Match> answers_;
    SearchStats stats_;
  };

  /// Parallel bookkeeping for one query: the fork/join scope plus one
  /// Worker per executing thread, created on a thread's first task for
  /// this query and drained single-threaded after the scope joins (the
  /// per-worker stats slots that replace the old stats mutex).
  struct ParallelState {
    ParallelState(const DriverConfig& config, const Model& model,
                  QueryContext* ctx)
        : config(config), model(model), ctx(ctx) {}

    Worker& LocalWorker() {
      const std::thread::id id = std::this_thread::get_id();
      std::lock_guard<std::mutex> lock(mu);
      for (auto& slot : workers) {
        if (slot.first == id) return *slot.second;
      }
      workers.emplace_back(
          id, std::make_unique<Worker>(config, model, ctx, /*parallel=*/true));
      return *workers.back().second;
    }

    void Submit(BranchTask task) {
      scope.Submit([this, task = std::move(task)] {
        LocalWorker().RunTask(task, this);
      });
    }

    void DrainAll(SearchStats* sink) {
      for (auto& slot : workers) slot.second->Drain(sink);
    }

    const DriverConfig& config;
    const Model& model;
    QueryContext* ctx;
    TaskScope scope;
    // Worker slots: appended under `mu` (rare — once per thread per
    // query), iterated without it only after the scope joined.
    std::mutex mu;
    std::vector<std::pair<std::thread::id, std::unique_ptr<Worker>>> workers;
  };

  const DriverConfig& config_;
  const Model& model_;
};

/// Convenience wrapper: builds the per-query context (envelope slot left
/// to the caller via `ctx`), runs the driver, and returns the sorted
/// answers. `epsilon` is ignored when knn_k > 0 (the threshold starts at
/// +infinity and shrinks to the k-th best distance).
template <typename Model>
std::vector<Match> RunSearchDriver(const DriverConfig& config,
                                   const Model& model, QueryContext* ctx,
                                   SearchStats* stats) {
  return SearchDriver<Model>(config, model).Run(ctx, stats);
}

}  // namespace tswarp::core

#endif  // TSWARP_CORE_SEARCH_DRIVER_H_
