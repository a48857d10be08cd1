#include "core/result_collector.h"

#include <algorithm>

namespace tswarp::core {

bool KnnMatchLess(const Match& a, const Match& b) {
  if (a.distance != b.distance) return a.distance < b.distance;
  return MatchLess(a, b);
}

void ResultCollector::Report(const Match& m, std::vector<Match>* local) {
  if (knn_k_ == 0) {
    local->push_back(m);
    return;
  }
  auto worse = [](const Match& a, const Match& b) {
    return KnnMatchLess(a, b);  // Max-heap under the k-NN total order.
  };
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Match>& heap = answers_;
  if (heap.size() < knn_k_) {
    heap.push_back(m);
    std::push_heap(heap.begin(), heap.end(), worse);
  } else if (KnnMatchLess(m, heap.front())) {
    std::pop_heap(heap.begin(), heap.end(), worse);
    heap.back() = m;
    std::push_heap(heap.begin(), heap.end(), worse);
  } else {
    return;
  }
  if (heap.size() == knn_k_) {
    epsilon_.store(heap.front().distance, std::memory_order_relaxed);
  }
}

void ResultCollector::DrainRange(std::vector<Match>* local) {
  if (knn_k_ > 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (answers_.empty()) {
    // The first drain (the only one of a serial search) adopts the
    // worker's buffer: copying it would hold a large answer set twice.
    answers_.swap(*local);
  } else {
    answers_.insert(answers_.end(), local->begin(), local->end());
  }
}

std::vector<Match> ResultCollector::Take() {
  std::vector<Match> answers = std::move(answers_);
  if (knn_k_ > 0) {
    std::sort(answers.begin(), answers.end(), KnnMatchLess);
  } else {
    std::sort(answers.begin(), answers.end(), MatchLess);
  }
  return answers;
}

}  // namespace tswarp::core
