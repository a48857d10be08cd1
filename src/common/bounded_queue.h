#ifndef TSWARP_COMMON_BOUNDED_QUEUE_H_
#define TSWARP_COMMON_BOUNDED_QUEUE_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <utility>
#include <vector>

namespace tswarp {

/// Bounded MPMC FIFO with *non-blocking* admission: producers that find
/// the queue full are refused immediately (TryPush returns false) instead
/// of blocking, which is exactly the backpressure shape a server's
/// admission control needs — the caller turns the refusal into a 429 and
/// the client retries, rather than piling unbounded latency into a hidden
/// wait. Consumers block (Pop / PopBatch).
///
/// Shutdown protocol: Close() refuses all further pushes while letting
/// consumers drain what was already accepted; Pop/PopBatch return false/0
/// only when the queue is both closed and empty. Every item accepted
/// before Close() is therefore handed to exactly one consumer — nothing
/// accepted is ever dropped, the invariant the server's graceful-drain
/// test pins down.
template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(std::size_t capacity) : capacity_(capacity) {}

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// Accepts `item` unless the queue is full or closed. Never blocks.
  bool TryPush(T item) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closed_ || items_.size() >= capacity_) {
        ++rejected_;
        return false;
      }
      items_.push_back(std::move(item));
      ++accepted_;
      if (items_.size() > high_water_) high_water_ = items_.size();
    }
    cv_.notify_one();
    return true;
  }

  /// Blocks until an item is available or the queue is closed and empty.
  /// Returns false only in the latter case.
  bool Pop(T* out) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return closed_ || !items_.empty(); });
    if (items_.empty()) return false;
    *out = std::move(items_.front());
    items_.pop_front();
    return true;
  }

  /// Blocks like Pop, then drains up to `max` immediately-available items
  /// into `*out` (appended). Returns the number taken; 0 only when closed
  /// and empty. The batch is one dispatch round of tswarpd: one wait,
  /// then everything that queued up behind the first item.
  std::size_t PopBatch(std::vector<T>* out, std::size_t max) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return closed_ || !items_.empty(); });
    std::size_t taken = 0;
    while (taken < max && !items_.empty()) {
      out->push_back(std::move(items_.front()));
      items_.pop_front();
      ++taken;
    }
    return taken;
  }

  /// Refuses all future pushes; wakes every blocked consumer so they can
  /// drain the remainder and observe the close.
  void Close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    cv_.notify_all();
  }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return closed_;
  }

  std::size_t depth() const {
    std::lock_guard<std::mutex> lock(mu_);
    return items_.size();
  }

  std::size_t capacity() const { return capacity_; }

  /// Lifetime counters (items ever accepted / refused) and the deepest
  /// the queue has been — the admission-control observability trio.
  std::uint64_t accepted() const {
    std::lock_guard<std::mutex> lock(mu_);
    return accepted_;
  }
  std::uint64_t rejected() const {
    std::lock_guard<std::mutex> lock(mu_);
    return rejected_;
  }
  std::size_t high_water() const {
    std::lock_guard<std::mutex> lock(mu_);
    return high_water_;
  }

 private:
  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<T> items_;
  bool closed_ = false;
  std::uint64_t accepted_ = 0;
  std::uint64_t rejected_ = 0;
  std::size_t high_water_ = 0;
};

}  // namespace tswarp

#endif  // TSWARP_COMMON_BOUNDED_QUEUE_H_
