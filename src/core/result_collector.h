#ifndef TSWARP_CORE_RESULT_COLLECTOR_H_
#define TSWARP_CORE_RESULT_COLLECTOR_H_

#include <atomic>
#include <cstddef>
#include <mutex>
#include <vector>

#include "common/types.h"
#include "core/match.h"

namespace tswarp::core {

/// Total order used by k-NN branch-and-bound: primary key distance,
/// deterministic (seq, start, len) tie-break. With this order the k best
/// matches are a unique set, so serial and parallel searches agree even
/// when ties straddle the k-th position.
bool KnnMatchLess(const Match& a, const Match& b);

/// Shared result collection of one search, used by every searcher (tree
/// driver, sequential scan) in both paper modes:
///
///   range (knn_k == 0)  epsilon is fixed; workers append matches to a
///                       private vector and publish it once via
///                       DrainRange, so the hot path takes no lock.
///   k-NN  (knn_k > 0)   the collector keeps a max-heap (under
///                       KnnMatchLess) of the current k best matches;
///                       Report inserts under the mutex and shrinks the
///                       shared threshold to the k-th best distance.
///
/// epsilon() is the current pruning threshold either way. It is atomic
/// and monotonically non-increasing, so a stale read by a concurrent
/// worker only weakens pruning, never correctness. Parallel tree workers
/// lean on that monotonicity harder still: they prune against a local
/// *cached* copy of the threshold, refreshed periodically and after
/// their own reports (see the driver's EpsMode), so the hot loop does
/// not re-read this cache line on every row.
class ResultCollector {
 public:
  ResultCollector(Value epsilon, std::size_t knn_k)
      : knn_k_(knn_k), epsilon_(knn_k > 0 ? kInfinity : epsilon) {}

  ResultCollector(const ResultCollector&) = delete;
  ResultCollector& operator=(const ResultCollector&) = delete;

  bool knn() const { return knn_k_ > 0; }

  Value epsilon() const { return epsilon_.load(std::memory_order_relaxed); }

  /// Records one exact match. Range mode appends to the worker-private
  /// `local` vector; k-NN mode ignores `local` and inserts into the
  /// shared k-best heap.
  void Report(const Match& m, std::vector<Match>* local);

  /// Publishes a range worker's private answers into the shared set
  /// (single lock per worker; no-op in k-NN mode, whose matches were
  /// already reported into the shared heap). Consumes `local`: its
  /// contents are unspecified afterwards.
  void DrainRange(std::vector<Match>* local);

  /// Sorts and returns the final answers: range mode by (seq, start,
  /// len), k-NN mode by (distance, seq, start, len). Call once, after
  /// every worker drained.
  std::vector<Match> Take();

 private:
  const std::size_t knn_k_;
  /// Current pruning threshold. Fixed in range mode; in k-NN mode it
  /// shrinks to the k-th best distance found so far.
  std::atomic<Value> epsilon_;

  std::mutex mu_;
  /// Range mode: concatenated worker answers. k-NN mode: max-heap (by
  /// KnnMatchLess) of the current k best matches. Both guarded by `mu_`.
  std::vector<Match> answers_;
};

}  // namespace tswarp::core

#endif  // TSWARP_CORE_RESULT_COLLECTOR_H_
