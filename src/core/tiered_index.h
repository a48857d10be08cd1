#ifndef TSWARP_CORE_TIERED_INDEX_H_
#define TSWARP_CORE_TIERED_INDEX_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/index.h"
#include "core/tier.h"

namespace tswarp::core {

/// Removes orphaned `<disk_path>.tmp-merge-*` bundle files left behind by
/// background merges that aborted without cleanup (process crash).
/// TieredIndex::Create runs this automatically for disk-backed indexes;
/// exposed for tests and ops tooling. Best-effort, never throws.
void CleanupOrphanedMergeFiles(const std::string& disk_path);

/// Configuration of a TieredIndex on top of the base IndexOptions.
struct TieredOptions {
  /// How the base tier is built and how every appended/merged tier is
  /// symbolized (kind, categories, suffix-length bounds, disk settings).
  IndexOptions index;

  /// Seal the memtable tier into an immutable sealed tier once it holds
  /// this many appended sequences.
  std::size_t memtable_max_sequences = 8;

  /// Background compaction keeps at most this many sealed appended tiers;
  /// beyond it the two oldest adjacent sealed tiers are merged
  /// (suffixtree::MergeTrees) into one.
  std::size_t max_sealed_tiers = 2;

  /// When false, compaction runs synchronously inside Append once the
  /// sealed-tier budget is exceeded — deterministic tier shapes for tests;
  /// true hands merges to the background worker.
  bool merge_in_background = true;
};

/// Aggregate statistics of a TieredIndex (surfaced by GET /stats and the
/// CLI --stats breakdown).
struct TieredStats {
  std::vector<TierInfo> tiers;        // Per-tier breakdown, base first.
  std::size_t appended_sequences = 0;  // Total Append() calls accepted.
  std::size_t memtable_sequences = 0;  // Sequences in the memtable tier.
  std::size_t sealed_tiers = 0;        // Sealed appended tiers (not base).
  std::size_t pending_merges = 0;      // Compactions owed right now.
  std::uint64_t merges_completed = 0;
  std::uint64_t merges_cancelled = 0;
  std::uint64_t merges_failed = 0;     // Compaction attempts that failed.
  std::string merge_error;             // merge_status() text; empty if OK.
  std::size_t continuous_queries = 0;
};

/// Callback of a continuous query: invoked once per Append whose new
/// sequence produced at least one match, with the matches (global ids,
/// sorted) found in that sequence. Exactly-once per (query, match):
/// appends are evaluated against only the newly added sequence, and
/// background merges never re-run continuous queries, so a match is
/// delivered at the single Append that created it. Callbacks run on the
/// appending thread after the new snapshot is published; they may call
/// Snapshot(), RegisterContinuous() and Unregister() (including
/// unregistering themselves) but must not call Append().
using ContinuousCallback =
    std::function<void(std::uint64_t query_id, const std::vector<Match>&)>;

/// The mutable streaming face of the index layer: an LSM-style stack of
/// immutable tiers with a single mutation entry point.
///
///   base tier      the monolithic Index this TieredIndex was created
///                  from (memory or disk), never compacted;
///   sealed tiers   immutable suffix trees over batches of appended
///                  sequences, compacted pairwise in the background;
///   memtable tier  the youngest appended sequences. Logically mutable,
///                  physically immutable: every Append builds a fresh
///                  memtable tier (single-sequence tree merged onto the
///                  previous memtable tree) and publishes a new snapshot,
///                  so readers never observe a tier changing.
///
/// All reads go through Snapshot(): an atomically published
/// std::shared_ptr<const IndexSnapshot> that pins every tier it lists.
/// Queries running against an old snapshot keep their tiers (trees,
/// buffer managers, database fragments) alive until they drop the
/// pointer; a merged-away disk tier deletes its bundle files only then.
///
/// Symbolization is frozen at base build so every tier speaks the same
/// alphabet: categorized modes reuse the base category *boundaries* (each
/// tier carries its own copy fitted to its values, keeping the interval
/// lower bound sound), and exact mode extends an append-only dictionary
/// (each tier snapshots the symbol->value decode at seal time). Because
/// every engine verifies candidates exactly, search results over a
/// tiered snapshot are byte-identical to a monolithic index freshly
/// built over the same data — the differential tests assert exactly
/// this, mid-merge included.
///
/// Thread safety: Append is internally serialized; Snapshot/Stats/
/// searches may run concurrently with Append and with background merges
/// from any thread. The destructor cancels in-flight merges
/// (cooperatively, through suffixtree::MergeTrees' cancel token) and
/// joins the worker.
class TieredIndex {
 public:
  /// Builds the base tier over `base_db` (which must outlive the
  /// TieredIndex) per `options.index` and wraps it. With a disk path this
  /// also removes orphaned `<disk_path>.tmp-merge-*` bundles left behind
  /// by merges aborted in a previous process (crash recovery).
  static StatusOr<std::unique_ptr<TieredIndex>> Create(
      const seqdb::SequenceDatabase* base_db, const TieredOptions& options);

  /// Wraps an already built/opened base index (same database lifetime
  /// contract as Create).
  static std::unique_ptr<TieredIndex> FromIndex(Index base,
                                                const TieredOptions& options);

  ~TieredIndex();

  TieredIndex(const TieredIndex&) = delete;
  TieredIndex& operator=(const TieredIndex&) = delete;

  /// Appends one sequence, assigns it the next global SeqId, publishes a
  /// snapshot containing it, evaluates continuous queries against it, and
  /// (possibly in the background) compacts sealed tiers. Returns the
  /// global id. Serialized internally; safe to call concurrently with
  /// searches on any snapshot.
  StatusOr<SeqId> Append(seqdb::Sequence values);

  /// The currently published immutable snapshot (never null).
  std::shared_ptr<const IndexSnapshot> Snapshot() const;

  /// Blocks until no compaction is owed or running, or until the latest
  /// compaction has failed (see merge_status()). Test/ops hook.
  void WaitForMerges();

  TieredStats Stats() const;

  /// OK, or the error the latest compaction failed with; OK again once a
  /// compaction succeeds. Either way the tiers of a failed compaction stay
  /// live and searchable, unmerged. OutOfRange (a merged tier too large
  /// for 32-bit offsets) fails the same way on every attempt and stops
  /// compaction for good; any other failure (a full disk, a failed
  /// rename) is retried, in the background after a delay that doubles
  /// with each consecutive failure, inline at the next Append.
  Status merge_status() const;

  /// Registers a standing query: every future Append whose new sequence
  /// contains a subsequence within `epsilon` of `query` invokes `callback`
  /// with those matches. Returns the query id for Unregister.
  std::uint64_t RegisterContinuous(std::vector<Value> query, Value epsilon,
                                   ContinuousCallback callback,
                                   const QueryOptions& query_options = {});

  /// Removes a continuous query; safe from inside its own callback.
  void Unregister(std::uint64_t query_id);

  const TieredOptions& options() const { return options_; }

 private:
  struct ContinuousQuery {
    std::vector<Value> query;
    Value epsilon;
    QueryOptions query_options;
    ContinuousCallback callback;
  };

  TieredIndex(Index base, const TieredOptions& options);

  /// Assembles base + sealed + memtable tiers and publishes the snapshot.
  /// Requires mu_ held.
  void PublishLocked();

  /// Compactions owed under the sealed-tier budget (none once compaction
  /// has stopped on OutOfRange). Requires mu_ held.
  std::size_t PendingMergesLocked() const;

  /// Merges the two oldest sealed tiers if one is owed. Returns false when
  /// nothing was owed or the merge was cancelled. Never holds mu_ across
  /// the tree merge itself.
  bool MergeOnce();

  /// Builds the merged tier from two adjacent sealed tiers (no locks
  /// held). Returns nullptr on cancellation and an error Status when the
  /// merge fails.
  StatusOr<std::shared_ptr<const Tier>> BuildMergedTier(
      const std::shared_ptr<const Tier>& a,
      const std::shared_ptr<const Tier>& b, std::uint64_t generation);

  void MergeWorkerLoop();

  const TieredOptions options_;

  // Frozen symbolization state. The alphabet copy is unfitted (only its
  // nominal boundaries matter for ToSymbol); dict_/symbol_values_ are the
  // append-only exact dictionary, guarded by mu_.
  std::optional<categorize::Alphabet> frozen_alphabet_;
  std::map<Value, Symbol> dict_;
  std::vector<Value> symbol_values_;

  // Append/compaction state, guarded by mu_.
  mutable std::mutex mu_;
  std::vector<std::shared_ptr<const Tier>> base_tiers_;
  IndexBuildInfo base_info_;
  SeqId base_sequences_ = 0;
  std::vector<std::shared_ptr<const Tier>> sealed_tiers_;
  std::shared_ptr<const Tier> memtable_tier_;
  std::vector<seqdb::Sequence> memtable_values_;
  std::vector<std::vector<Symbol>> memtable_symbols_;
  std::size_t appended_sequences_ = 0;
  std::uint64_t merges_completed_ = 0;
  std::uint64_t merges_cancelled_ = 0;
  std::uint64_t merges_failed_ = 0;
  Status merge_error_;          // Latest compaction's failure; OK after a success.
  bool merges_stopped_ = false;  // Set by an OutOfRange failure.
  std::uint64_t merge_generation_ = 0;
  bool merge_running_ = false;
  std::condition_variable merge_cv_;     // Signals worker: work or stop.
  std::condition_variable merge_done_cv_;  // Signals WaitForMerges.

  // Publication point, guarded separately so Snapshot() never waits on an
  // in-flight append or merge bookkeeping.
  mutable std::mutex snapshot_mu_;
  std::shared_ptr<const IndexSnapshot> snapshot_;

  // Continuous queries. Recursive: callbacks may re-enter
  // Register/Unregister.
  mutable std::recursive_mutex cq_mu_;
  std::map<std::uint64_t, ContinuousQuery> continuous_;
  std::uint64_t next_query_id_ = 1;

  std::atomic<bool> stop_{false};
  std::atomic<bool> cancel_merges_{false};
  std::thread merge_worker_;
};

}  // namespace tswarp::core

#endif  // TSWARP_CORE_TIERED_INDEX_H_
