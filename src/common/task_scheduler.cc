#include "common/task_scheduler.h"

#include <algorithm>
#include <utility>

namespace tswarp {

// ---------------------------------------------------------------------------
// Scheduler
// ---------------------------------------------------------------------------

TaskScheduler& TaskScheduler::Get() {
  static TaskScheduler scheduler;
  return scheduler;
}

TaskScheduler::~TaskScheduler() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void TaskScheduler::EnsureWorkers(std::size_t n) {
  n = std::min(n, kMaxWorkers);
  if (num_workers_.load(std::memory_order_acquire) >= n) return;
  std::lock_guard<std::mutex> lock(mu_);
  while (threads_.size() < n) {
    threads_.emplace_back([this] { WorkerLoop(); });
    num_workers_.store(threads_.size(), std::memory_order_release);
  }
}

bool TaskScheduler::RunOne(std::unique_lock<std::mutex>& lock) {
  if (queue_.empty()) return false;
  Task task = std::move(queue_.front());
  queue_.pop_front();
  lock.unlock();
  std::exception_ptr error;
  try {
    task.fn();
  } catch (...) {
    error = std::current_exception();
  }
  // Destroy the closure before the scope can be released: its captures
  // may refer to the waiter's frame.
  task.fn = nullptr;
  TaskScope* scope = task.scope;
  scope->tasks_executed_.fetch_add(1, std::memory_order_relaxed);
  if (task.submitter != std::this_thread::get_id()) {
    scope->tasks_stolen_.fetch_add(1, std::memory_order_relaxed);
  }
  lock.lock();
  if (error != nullptr && scope->first_exception_ == nullptr) {
    scope->first_exception_ = error;
  }
  // The waiter re-checks pending_ under mu_, so the scope outlives this
  // block; past it, touch only scheduler state.
  if (--scope->pending_ == 0) cv_.notify_all();
  return true;
}

void TaskScheduler::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
    // Queued tasks still run after stop_: only an empty queue ends.
    if (!RunOne(lock)) return;
  }
}

// ---------------------------------------------------------------------------
// TaskScope
// ---------------------------------------------------------------------------

TaskScope::TaskScope() : scheduler_(TaskScheduler::Get()) {}

TaskScope::~TaskScope() { WaitNoThrow(); }

void TaskScope::Submit(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(scheduler_.mu_);
    ++pending_;
    scheduler_.queue_.push_back(
        {std::move(fn), this, std::this_thread::get_id()});
  }
  // Every idle thread re-checks the queue: a waiter woken for a scope
  // that already finished must not swallow the only wakeup a task gets.
  scheduler_.cv_.notify_all();
}

void TaskScope::Wait() {
  std::unique_lock<std::mutex> lock(scheduler_.mu_);
  while (pending_ != 0) {
    // Help: run anyone's queued task rather than blocking a thread. This
    // is what makes nested scopes (per-tier tasks, batches) deadlock-free.
    if (scheduler_.RunOne(lock)) continue;
    scheduler_.cv_.wait(lock, [this] {
      return pending_ == 0 || !scheduler_.queue_.empty();
    });
  }
  std::exception_ptr e = std::exchange(first_exception_, nullptr);
  lock.unlock();
  if (e != nullptr) std::rethrow_exception(e);
}

void TaskScope::WaitNoThrow() noexcept {
  try {
    Wait();
  } catch (...) {
    // Destructor-path drain: the exception was already lost to the
    // caller.
  }
}

}  // namespace tswarp
