#include "core/tiered_index.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <utility>

#include "common/logging.h"
#include "common/task_scheduler.h"
#include "storage/mmap_file.h"
#include "suffixtree/merge.h"

namespace tswarp::core {

namespace {

/// A fresh copy of `frozen`'s nominal category boundaries, fitted to the
/// given sequences so the interval lower bound covers exactly their
/// values (paper Section 5.3, per tier).
categorize::Alphabet FitAlphabetTo(
    const categorize::Alphabet& frozen,
    const seqdb::SequenceDatabase& db) {
  StatusOr<categorize::Alphabet> copy = categorize::Alphabet::FromBoundaries(
      std::vector<Value>(frozen.boundaries().begin(),
                         frozen.boundaries().end()));
  TSW_CHECK(copy.ok());  // The boundaries were valid once already.
  for (SeqId id = 0; id < db.size(); ++id) {
    for (const Value v : db.sequence(id)) copy->FitValue(v);
  }
  return std::move(*copy);
}

suffixtree::BuildOptions BuildOptionsFrom(const IndexOptions& options) {
  suffixtree::BuildOptions build;
  build.sparse = options.kind == IndexKind::kSparse;
  build.min_suffix_length = options.min_suffix_length;
  build.max_suffix_length = options.max_suffix_length;
  return build;
}

}  // namespace

void CleanupOrphanedMergeFiles(const std::string& disk_path) {
  namespace fs = std::filesystem;
  const fs::path base(disk_path);
  fs::path dir = base.parent_path();
  if (dir.empty()) dir = ".";
  const std::string prefix = base.filename().string() + ".tmp-merge-";
  std::error_code ec;
  for (const fs::directory_entry& entry :
       fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind(prefix, 0) == 0) {
      std::error_code remove_ec;
      fs::remove(entry.path(), remove_ec);
    }
  }
}

StatusOr<std::unique_ptr<TieredIndex>> TieredIndex::Create(
    const seqdb::SequenceDatabase* base_db, const TieredOptions& options) {
  if (!options.index.disk_path.empty()) {
    // Crash recovery: a background merge aborted mid-write (process died)
    // leaves a partial <disk_path>.tmp-merge-<n> bundle behind; no tier
    // ever referenced it, so it is garbage.
    CleanupOrphanedMergeFiles(options.index.disk_path);
  }
  TSW_ASSIGN_OR_RETURN(Index base, Index::Build(base_db, options.index));
  return FromIndex(std::move(base), options);
}

std::unique_ptr<TieredIndex> TieredIndex::FromIndex(
    Index base, const TieredOptions& options) {
  return std::unique_ptr<TieredIndex>(
      new TieredIndex(std::move(base), options));
}

TieredIndex::TieredIndex(Index base, const TieredOptions& options)
    : options_(options) {
  std::shared_ptr<const IndexSnapshot> base_snapshot = base.snapshot();
  base_tiers_ = base_snapshot->tiers();
  base_info_ = base_snapshot->build_info();
  base_sequences_ = static_cast<SeqId>(base_snapshot->total_sequences());

  // Freeze the symbolization so every tier speaks the base alphabet.
  const Tier& base_tier = *base_tiers_.front();
  if (options_.index.kind == IndexKind::kSuffixTree) {
    symbol_values_ = base_tier.symbol_values;
    for (std::size_t i = 0; i < symbol_values_.size(); ++i) {
      dict_[symbol_values_[i]] = static_cast<Symbol>(i);
    }
  } else {
    TSW_CHECK(base_tier.alphabet.has_value());
    frozen_alphabet_ = *base_tier.alphabet;
  }

  snapshot_ = std::move(base_snapshot);
  if (options_.merge_in_background) {
    merge_worker_ = std::thread([this] { MergeWorkerLoop(); });
  }
}

TieredIndex::~TieredIndex() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_.store(true, std::memory_order_relaxed);
  }
  cancel_merges_.store(true, std::memory_order_relaxed);
  merge_cv_.notify_all();
  merge_done_cv_.notify_all();
  if (merge_worker_.joinable()) merge_worker_.join();
}

std::shared_ptr<const IndexSnapshot> TieredIndex::Snapshot() const {
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  return snapshot_;
}

void TieredIndex::PublishLocked() {
  std::vector<std::shared_ptr<const Tier>> tiers = base_tiers_;
  tiers.insert(tiers.end(), sealed_tiers_.begin(), sealed_tiers_.end());
  if (memtable_tier_ != nullptr) tiers.push_back(memtable_tier_);
  auto fresh = std::make_shared<const IndexSnapshot>(
      options_.index, base_info_, std::move(tiers));
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  snapshot_ = std::move(fresh);
}

std::size_t TieredIndex::PendingMergesLocked() const {
  if (merges_stopped_) return 0;
  return sealed_tiers_.size() > options_.max_sealed_tiers
             ? sealed_tiers_.size() - options_.max_sealed_tiers
             : 0;
}

StatusOr<SeqId> TieredIndex::Append(seqdb::Sequence values) {
  if (values.empty()) {
    return Status::InvalidArgument("cannot append an empty sequence");
  }

  struct Delivery {
    std::uint64_t query_id;
    ContinuousCallback callback;
    std::vector<Match> matches;
  };
  std::vector<Delivery> deliveries;

  std::unique_lock<std::mutex> lock(mu_);
  const SeqId global_id =
      base_sequences_ + static_cast<SeqId>(appended_sequences_);

  // 1. Symbolize under the frozen base alphabet / append-only dictionary.
  std::vector<Symbol> syms;
  syms.reserve(values.size());
  if (options_.index.kind == IndexKind::kSuffixTree) {
    for (const Value v : values) {
      auto it = dict_.find(v);
      if (it == dict_.end()) {
        const Symbol s = static_cast<Symbol>(symbol_values_.size());
        symbol_values_.push_back(v);
        it = dict_.emplace(v, s).first;
      }
      syms.push_back(it->second);
    }
  } else {
    for (const Value v : values) {
      syms.push_back(frozen_alphabet_->ToSymbol(v));
    }
  }

  // 2. Single-sequence tree: the unit the memtable grows by, and the
  // exactly-once evaluation scope for continuous queries (a new match
  // lies entirely within the new sequence, so evaluating only it can
  // neither miss nor re-deliver anything).
  suffixtree::SymbolDatabase one_sym;
  one_sym.Add(syms);
  const suffixtree::BuildOptions build = BuildOptionsFrom(options_.index);
  suffixtree::SuffixTreeBuilder builder(&one_sym, build);
  builder.InsertSequence(0);
  suffixtree::SuffixTree single_tree = builder.Build();
  TSW_RETURN_IF_ERROR(single_tree.status());

  {
    std::lock_guard<std::recursive_mutex> cq_lock(cq_mu_);
    if (!continuous_.empty()) {
      seqdb::SequenceDatabase single_db;
      single_db.Add(values);
      std::optional<categorize::Alphabet> single_alpha;
      if (options_.index.kind != IndexKind::kSuffixTree) {
        single_alpha = FitAlphabetTo(*frozen_alphabet_, single_db);
      }
      for (const auto& [id, cq] : continuous_) {
        TierSearchEntry entry;
        entry.config.tree = &single_tree;
        entry.config.db = &single_db;
        entry.config.exact = options_.index.kind == IndexKind::kSuffixTree;
        entry.config.sparse = options_.index.kind == IndexKind::kSparse;
        entry.config.alphabet =
            single_alpha.has_value() ? &*single_alpha : nullptr;
        entry.config.symbol_values =
            entry.config.exact ? &symbol_values_ : nullptr;
        entry.config.prune = cq.query_options.prune;
        entry.config.use_lower_bound = cq.query_options.use_lower_bound;
        entry.config.band = cq.query_options.band;
        entry.seq_base = global_id;
        std::vector<Match> matches =
            TierSearch(std::span<const TierSearchEntry>(&entry, 1),
                       cq.query, cq.epsilon);
        if (!matches.empty()) {
          deliveries.push_back({id, cq.callback, std::move(matches)});
        }
      }
    }
  }

  // 3. Grow the memtable: merge the new sequence's tree onto the previous
  // memtable tree (tier-local id = position within the memtable).
  const SeqId local_id = static_cast<SeqId>(memtable_values_.size());
  suffixtree::SuffixTree mem_tree;
  if (local_id == 0) {
    mem_tree = std::move(single_tree);
  } else {
    suffixtree::SeqOffsetTreeView offset_view(single_tree, local_id);
    const bool done = suffixtree::MergeTrees(*memtable_tier_->view(),
                                             offset_view, &mem_tree);
    TSW_CHECK(done);  // No cancel token: memtable merges always finish.
    TSW_RETURN_IF_ERROR(mem_tree.status());
  }
  memtable_values_.push_back(std::move(values));
  memtable_symbols_.push_back(std::move(syms));
  ++appended_sequences_;

  // 4. Assemble the new memtable tier — or, at the seal threshold, the
  // new sealed tier (a tier's role is fixed at creation; nothing is ever
  // mutated after publication).
  auto tier = std::make_shared<Tier>();
  tier->first_seq = global_id - local_id;
  tier->owned_db.emplace();
  for (const seqdb::Sequence& seq : memtable_values_) {
    tier->owned_db->Add(seq);
  }
  tier->db = &*tier->owned_db;
  if (options_.index.kind == IndexKind::kSuffixTree) {
    tier->symbol_values = symbol_values_;
  } else {
    tier->alphabet = FitAlphabetTo(*frozen_alphabet_, *tier->owned_db);
  }
  tier->memory_tree = std::move(mem_tree);
  const bool seal = memtable_values_.size() >= options_.memtable_max_sequences;
  tier->is_memtable = !seal;
  if (seal && options_.index.node_summaries) {
    // Memtable tiers never carry summaries — the tree is replaced on
    // every append and rebuilding the summaries each time would put an
    // O(nodes) pass on the ingest path. A sealing tier is immutable from
    // here on, so build them once now.
    tier->memory_summaries = suffixtree::BuildNodeSummaries(
        *tier->view(), TierSymbolHulls(*tier));
  }
  tier->info = ComputeTierInfo(*tier);
  if (seal) {
    sealed_tiers_.push_back(std::move(tier));
    memtable_tier_.reset();
    memtable_values_.clear();
    memtable_symbols_.clear();
  } else {
    memtable_tier_ = std::move(tier);
  }
  PublishLocked();

  const bool owed = PendingMergesLocked() > 0;
  if (owed && options_.merge_in_background) merge_cv_.notify_one();
  lock.unlock();

  if (owed && !options_.merge_in_background) {
    while (MergeOnce()) {
    }
  }

  for (const Delivery& d : deliveries) {
    std::lock_guard<std::recursive_mutex> cq_lock(cq_mu_);
    // Skip queries unregistered between evaluation and delivery.
    if (continuous_.find(d.query_id) == continuous_.end()) continue;
    d.callback(d.query_id, d.matches);
  }
  return global_id;
}

StatusOr<std::shared_ptr<const Tier>> TieredIndex::BuildMergedTier(
    const std::shared_ptr<const Tier>& a,
    const std::shared_ptr<const Tier>& b, std::uint64_t generation) {
  const std::size_t na = a->info.sequences;

  auto tier = std::make_shared<Tier>();
  tier->first_seq = a->first_seq;
  tier->owned_db.emplace();
  for (SeqId id = 0; id < a->db->size(); ++id) {
    tier->owned_db->Add(a->db->sequence(id));
  }
  for (SeqId id = 0; id < b->db->size(); ++id) {
    tier->owned_db->Add(b->db->sequence(id));
  }
  tier->db = &*tier->owned_db;
  if (options_.index.kind == IndexKind::kSuffixTree) {
    // The later tier's dictionary snapshot is a superset of the earlier
    // one's (the dictionary is append-only).
    tier->symbol_values = b->symbol_values;
  } else {
    tier->alphabet = FitAlphabetTo(*frozen_alphabet_, *tier->owned_db);
  }

  suffixtree::SeqOffsetTreeView b_view(*b->view(), static_cast<SeqId>(na));
  if (options_.index.disk_path.empty()) {
    suffixtree::SuffixTree out;
    if (!suffixtree::MergeTrees(*a->view(), b_view, &out,
                                &cancel_merges_)) {
      return std::shared_ptr<const Tier>();
    }
    TSW_RETURN_IF_ERROR(out.status());
    tier->memory_tree = std::move(out);
    if (options_.index.node_summaries) {
      // Recompute over the merged tree: the inputs' summaries describe
      // subtrees that no longer exist as such.
      tier->memory_summaries = suffixtree::BuildNodeSummaries(
          *tier->view(), TierSymbolHulls(*tier));
    }
  } else {
    const std::string tmp =
        options_.index.disk_path + ".tmp-merge-" + std::to_string(generation);
    StatusOr<std::unique_ptr<suffixtree::DiskTreeWriter>> writer =
        suffixtree::DiskTreeWriter::Create(
            tmp, TreeOptionsFromIndexOptions(options_.index));
    TSW_RETURN_IF_ERROR(writer.status());
    const bool done = suffixtree::MergeTrees(*a->view(), b_view,
                                             writer->get(), &cancel_merges_);
    const Status closed =
        done ? (*writer)->Close() : (*writer)->status();
    // Release the buffer managers; on cancel or failure unlink the partial
    // bundle so no orphan survives the abort.
    writer->reset();
    if (!done || !closed.ok()) {
      suffixtree::RemoveDiskTree(tmp);
      if (!done) return std::shared_ptr<const Tier>();
      return closed;
    }

    if (options_.index.node_summaries) {
      // Build the merged tier's summaries and attach them to the tmp
      // bundle *before* the rename, so a published tier is always
      // complete — a failure here aborts the whole merge cleanly.
      StatusOr<std::unique_ptr<suffixtree::DiskSuffixTree>> tmp_tree =
          suffixtree::DiskSuffixTree::Open(
              tmp, TreeOptionsFromIndexOptions(options_.index));
      if (!tmp_tree.ok()) {
        suffixtree::RemoveDiskTree(tmp);
        return tmp_tree.status();
      }
      const std::vector<suffixtree::NodeSummaryRecord> records =
          suffixtree::BuildNodeSummaries(**tmp_tree, TierSymbolHulls(*tier));
      tmp_tree->reset();  // Release the bundle before rewriting its meta.
      const Status attached = suffixtree::AttachNodeSummaries(tmp, records);
      if (!attached.ok()) {
        suffixtree::RemoveDiskTree(tmp);
        return attached;
      }
    }

    const std::string final_base =
        options_.index.disk_path + ".tier-" + std::to_string(generation);
    namespace fs = std::filesystem;
    bool renamed = true;
    std::vector<const char*> exts = {".meta", ".nodes", ".occs", ".labels"};
    if (options_.index.node_summaries) exts.push_back(".sums");
    for (const char* ext : exts) {
      std::error_code ec;
      fs::rename(tmp + ext, final_base + ext, ec);
      if (ec) renamed = false;
    }
    if (!renamed) {
      suffixtree::RemoveDiskTree(tmp);
      suffixtree::RemoveDiskTree(final_base);
      return Status::IOError("renaming merged tier " + tmp + " -> " +
                             final_base + " failed");
    }
    // Persist the renames: without the directory fsync a power loss here
    // could roll the directory back to a state where the published tier's
    // files never existed, even though every byte inside them is durable.
    const Status synced = storage::SyncDir(
        fs::path(options_.index.disk_path).parent_path().string());
    if (!synced.ok()) {
      suffixtree::RemoveDiskTree(final_base);
      return synced;
    }
    StatusOr<std::unique_ptr<suffixtree::DiskSuffixTree>> opened =
        suffixtree::DiskSuffixTree::Open(
            final_base, TreeOptionsFromIndexOptions(options_.index));
    if (!opened.ok()) {
      suffixtree::RemoveDiskTree(final_base);
      return opened.status();
    }
    tier->disk_tree = std::move(*opened);
    tier->disk_base = final_base;
    tier->owns_disk_files = true;
  }
  tier->info = ComputeTierInfo(*tier);
  return std::shared_ptr<const Tier>(std::move(tier));
}

bool TieredIndex::MergeOnce() {
  std::shared_ptr<const Tier> a;
  std::shared_ptr<const Tier> b;
  std::uint64_t generation = 0;
  {
    std::unique_lock<std::mutex> lock(mu_);
    merge_done_cv_.wait(lock, [&] {
      return !merge_running_ || stop_.load(std::memory_order_relaxed);
    });
    if (stop_.load(std::memory_order_relaxed)) return false;
    if (PendingMergesLocked() == 0) return false;
    // Only the merge path removes sealed tiers and appends only push to
    // the back, so the two oldest stay at the front until we swap them.
    a = sealed_tiers_[0];
    b = sealed_tiers_[1];
    generation = ++merge_generation_;
    merge_running_ = true;
  }

  // Run the compaction itself as a task on the shared work-stealing
  // scheduler — merges are throughput work and should obey the same
  // executor as searches (the coordinating thread helps execute it).
  StatusOr<std::shared_ptr<const Tier>> built = std::shared_ptr<const Tier>();
  TaskScheduler::Get().EnsureWorkers(1);
  {
    TaskScope scope;
    scope.Submit([&] { built = BuildMergedTier(a, b, generation); });
    scope.Wait();
  }

  std::unique_lock<std::mutex> lock(mu_);
  merge_running_ = false;
  if (!built.ok()) {
    ++merges_failed_;
    merge_error_ = built.status();
    // The same inputs would overflow the same way on every retry.
    if (merge_error_.code() == StatusCode::kOutOfRange) {
      merges_stopped_ = true;
    }
    merge_done_cv_.notify_all();
    return false;
  }
  std::shared_ptr<const Tier> merged = std::move(*built);
  if (merged == nullptr) {
    ++merges_cancelled_;
    merge_done_cv_.notify_all();
    return false;
  }
  TSW_CHECK(sealed_tiers_.size() >= 2 && sealed_tiers_[0] == a &&
            sealed_tiers_[1] == b);
  sealed_tiers_.erase(sealed_tiers_.begin(), sealed_tiers_.begin() + 2);
  sealed_tiers_.insert(sealed_tiers_.begin(), std::move(merged));
  ++merges_completed_;
  merge_error_ = Status::OK();
  PublishLocked();
  merge_done_cv_.notify_all();
  return true;
}

void TieredIndex::MergeWorkerLoop() {
  using std::chrono::milliseconds;
  constexpr milliseconds kFirstRetryDelay{50};
  constexpr milliseconds kMaxRetryDelay{5000};
  milliseconds retry_delay = kFirstRetryDelay;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (merge_error_.ok()) {
        retry_delay = kFirstRetryDelay;
      } else {
        // Back off before retrying a failed compaction; appends notifying
        // merge_cv_ do not cut the delay short.
        merge_cv_.wait_for(lock, retry_delay, [&] {
          return stop_.load(std::memory_order_relaxed);
        });
        retry_delay = std::min(2 * retry_delay, kMaxRetryDelay);
      }
      merge_cv_.wait(lock, [&] {
        return stop_.load(std::memory_order_relaxed) ||
               (PendingMergesLocked() > 0 && !merge_running_);
      });
      if (stop_.load(std::memory_order_relaxed)) return;
    }
    MergeOnce();
  }
}

void TieredIndex::WaitForMerges() {
  std::unique_lock<std::mutex> lock(mu_);
  if (options_.merge_in_background) merge_cv_.notify_one();
  merge_done_cv_.wait(lock, [&] {
    return stop_.load(std::memory_order_relaxed) ||
           (!merge_running_ &&
            (PendingMergesLocked() == 0 || !merge_error_.ok()));
  });
}

Status TieredIndex::merge_status() const {
  std::lock_guard<std::mutex> lock(mu_);
  return merge_error_;
}

TieredStats TieredIndex::Stats() const {
  TieredStats stats;
  std::shared_ptr<const IndexSnapshot> snapshot = Snapshot();
  stats.tiers.reserve(snapshot->tiers().size());
  for (const std::shared_ptr<const Tier>& tier : snapshot->tiers()) {
    stats.tiers.push_back(tier->info);
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    stats.appended_sequences = appended_sequences_;
    stats.memtable_sequences = memtable_values_.size();
    stats.sealed_tiers = sealed_tiers_.size();
    stats.pending_merges = PendingMergesLocked() + (merge_running_ ? 1 : 0);
    stats.merges_completed = merges_completed_;
    stats.merges_cancelled = merges_cancelled_;
    stats.merges_failed = merges_failed_;
    if (!merge_error_.ok()) stats.merge_error = merge_error_.ToString();
  }
  {
    std::lock_guard<std::recursive_mutex> lock(cq_mu_);
    stats.continuous_queries = continuous_.size();
  }
  return stats;
}

std::uint64_t TieredIndex::RegisterContinuous(
    std::vector<Value> query, Value epsilon, ContinuousCallback callback,
    const QueryOptions& query_options) {
  TSW_CHECK(!query.empty());
  TSW_CHECK(callback != nullptr);
  std::lock_guard<std::recursive_mutex> lock(cq_mu_);
  const std::uint64_t id = next_query_id_++;
  continuous_.emplace(
      id, ContinuousQuery{std::move(query), epsilon, query_options,
                          std::move(callback)});
  return id;
}

void TieredIndex::Unregister(std::uint64_t query_id) {
  std::lock_guard<std::recursive_mutex> lock(cq_mu_);
  continuous_.erase(query_id);
}

}  // namespace tswarp::core
