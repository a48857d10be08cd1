#ifndef TSWARP_COMMON_BOUNDED_QUEUE_H_
#define TSWARP_COMMON_BOUNDED_QUEUE_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <utility>

namespace tswarp {

/// Bounded MPMC FIFO with *non-blocking* admission: producers that find
/// the queue full are refused immediately (TryPush returns false) instead
/// of blocking, so tswarpd's accept thread can answer 503 rather than let
/// a connection hang. Consumers block (Pop).
///
/// Shutdown protocol: Close() refuses all further pushes while letting
/// consumers drain what was already accepted; Pop returns false only when
/// the queue is both closed and empty. Every item accepted before Close()
/// is therefore handed to exactly one consumer.
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
      if (closed_ || items_.size() >= capacity_) return false;
      items_.push_back(std::move(item));
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

  /// Refuses all future pushes; wakes every blocked consumer so they can
  /// drain the remainder and observe the close.
  void Close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    cv_.notify_all();
  }

 private:
  const std::size_t capacity_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<T> items_;
  bool closed_ = false;
};

}  // namespace tswarp

#endif  // TSWARP_COMMON_BOUNDED_QUEUE_H_
