#include "core/tiered_index.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/logging.h"
#include "core/seq_scan.h"
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

StatusOr<std::unique_ptr<TieredIndex>> TieredIndex::Create(
    const seqdb::SequenceDatabase* base_db, const TieredOptions& options) {
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

  // 2. Single-sequence tree: the unit the memtable grows by.
  suffixtree::SymbolDatabase one_sym;
  one_sym.Add(syms);
  const suffixtree::BuildOptions build = BuildOptionsFrom(options_.index);
  suffixtree::SuffixTreeBuilder builder(&one_sym, build);
  builder.InsertSequence(0);
  suffixtree::SuffixTree single_tree = builder.Build();
  TSW_RETURN_IF_ERROR(single_tree.status());

  // 3. Grow the memtable: merge the new sequence's tree onto the previous
  // memtable tree (tier-local id = position within the memtable).
  const SeqId local_id = static_cast<SeqId>(memtable_values_.size());
  suffixtree::SuffixTree mem_tree;
  if (local_id == 0) {
    mem_tree = std::move(single_tree);
  } else {
    const bool done = suffixtree::MergeTrees(
        *memtable_tier_->view(), single_tree, &mem_tree, /*cancel=*/nullptr,
        suffixtree::MergeText::kConcatenate, /*b_seq_offset=*/local_id);
    TSW_CHECK(done);  // No cancel token: memtable merges always finish.
    TSW_RETURN_IF_ERROR(mem_tree.status());
  }
  memtable_values_.push_back(std::move(values));
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
  const seqdb::Sequence& appended = tier->owned_db->sequence(local_id);
  const bool seal = memtable_values_.size() >= options_.memtable_max_sequences;
  tier->is_memtable = !seal;
  tier->info = ComputeTierInfo(*tier);
  if (seal) {
    sealed_tiers_.push_back(std::move(tier));
    memtable_tier_.reset();
    memtable_values_.clear();
  } else {
    memtable_tier_ = std::move(tier);
  }
  PublishLocked();

  // 5. Continuous queries scan the new sequence alone: a new match lies
  // entirely within it, so the scan can neither miss nor re-buffer
  // anything, and it reports exactly what a search of any index over the
  // same values would. The buffers fill after the publish, so a polled
  // match is always in the published snapshot.
  {
    std::lock_guard<std::mutex> cq_lock(cq_mu_);
    if (!continuous_.empty()) {
      seqdb::SequenceDatabase single;
      single.Add(appended);
      for (auto& [id, cq] : continuous_) {
        std::vector<Match>& buffer = cq.pending.matches;
        for (Match m : SeqScan(single, cq.query, cq.epsilon)) {
          m.seq = global_id;
          buffer.push_back(m);
        }
        if (buffer.size() > kContinuousBufferCap) {
          const std::size_t excess = buffer.size() - kContinuousBufferCap;
          buffer.erase(buffer.begin(), buffer.begin() + excess);
          cq.pending.dropped += excess;
        }
      }
    }
  }

  const bool owed = PendingMergesLocked() > 0;
  if (owed && options_.merge_in_background) merge_cv_.notify_one();
  lock.unlock();

  if (owed && !options_.merge_in_background) {
    while (MergeOnce()) {
    }
  }
  return global_id;
}

StatusOr<std::shared_ptr<const Tier>> TieredIndex::BuildMergedTier(
    const std::shared_ptr<const Tier>& a,
    const std::shared_ptr<const Tier>& b) {
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

  // Both tiers number their sequences from 0: b's come after a's.
  suffixtree::SuffixTree out;
  if (!suffixtree::MergeTrees(*a->view(), *b->view(), &out, &cancel_merges_,
                              suffixtree::MergeText::kConcatenate,
                              static_cast<SeqId>(na))) {
    return std::shared_ptr<const Tier>();
  }
  TSW_RETURN_IF_ERROR(out.status());
  if (options_.index.disk_path.empty()) {
    tier->memory_tree = std::move(out);
  } else {
    // An unnamed file beside the base bundle, freed with the tier.
    TSW_ASSIGN_OR_RETURN(
        tier->disk_tree,
        suffixtree::WriteScratchTree(out, options_.index.disk_path));
  }
  tier->info = ComputeTierInfo(*tier);
  return std::shared_ptr<const Tier>(std::move(tier));
}

bool TieredIndex::MergeOnce() {
  std::shared_ptr<const Tier> a;
  std::shared_ptr<const Tier> b;
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
    merge_running_ = true;
  }

  // The compaction runs on the calling thread: the merge thread, or the
  // appending thread when merges are not in the background.
  StatusOr<std::shared_ptr<const Tier>> built = BuildMergedTier(a, b);

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
    std::lock_guard<std::mutex> lock(cq_mu_);
    stats.continuous_queries = continuous_.size();
  }
  return stats;
}

std::uint64_t TieredIndex::RegisterContinuous(std::vector<Value> query,
                                              Value epsilon) {
  TSW_CHECK(!query.empty());
  std::lock_guard<std::mutex> lock(cq_mu_);
  const std::uint64_t id = next_query_id_++;
  ContinuousQuery& cq = continuous_[id];
  cq.query = std::move(query);
  cq.epsilon = epsilon;
  return id;
}

StatusOr<ContinuousPoll> TieredIndex::PollContinuous(std::uint64_t query_id) {
  std::lock_guard<std::mutex> lock(cq_mu_);
  auto it = continuous_.find(query_id);
  if (it == continuous_.end()) {
    return Status::NotFound("no continuous query with that id");
  }
  ContinuousPoll& pending = it->second.pending;
  pending.delivered += pending.matches.size();
  ContinuousPoll poll = std::move(pending);
  pending.matches.clear();  // Moved from: valid, now empty.
  return poll;
}

Status TieredIndex::UnregisterContinuous(std::uint64_t query_id) {
  std::lock_guard<std::mutex> lock(cq_mu_);
  if (continuous_.erase(query_id) == 0) {
    return Status::NotFound("no continuous query with that id");
  }
  return Status::OK();
}

}  // namespace tswarp::core
