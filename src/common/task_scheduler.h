#ifndef TSWARP_COMMON_TASK_SCHEDULER_H_
#define TSWARP_COMMON_TASK_SCHEDULER_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace tswarp {

class TaskScope;

/// Process-wide executor: a lazily started pool of persistent worker
/// threads draining one mutex-guarded FIFO queue. Searches do not spawn
/// OS threads — they borrow workers from this scheduler through a
/// TaskScope, so a query pays a queue push per task instead of thread
/// creation.
///
/// The tasks are coarse by construction: a parallel search submits one
/// task per contiguous range of root edges (at most a few per thread),
/// SearchBatch one per query, the parallel SeqScan one per sequence. At
/// that grain one lock and one condition variable cost nothing
/// measurable, so there are no per-worker deques and no stealing
/// protocol. Tasks are tagged with their TaskScope, so any thread can
/// execute any task and scopes can nest freely.
class TaskScheduler {
 public:
  /// Hard cap on pool size; `num_threads` arrives from outside (CLI flags,
  /// request fields), so growth is clamped here.
  static constexpr std::size_t kMaxWorkers = 64;

  /// The process-wide scheduler. First call constructs it; workers are
  /// only spawned by EnsureWorkers. Destroyed (workers joined) at exit.
  static TaskScheduler& Get();

  /// Ensures at least min(n, kMaxWorkers) persistent workers are running.
  /// Never shrinks the pool. Cheap when already satisfied (one atomic
  /// load), so callers invoke it per search without caring about state.
  void EnsureWorkers(std::size_t n);

  std::size_t num_workers() const {
    return num_workers_.load(std::memory_order_acquire);
  }

  TaskScheduler(const TaskScheduler&) = delete;
  TaskScheduler& operator=(const TaskScheduler&) = delete;

 private:
  friend class TaskScope;

  /// One scheduled unit: the closure, its fork/join scope, and the
  /// submitting thread, which lets the executor count the task as stolen
  /// (run by another thread) or not.
  struct Task {
    std::function<void()> fn;
    TaskScope* scope;
    std::thread::id submitter;
  };

  TaskScheduler() = default;
  ~TaskScheduler();

  void WorkerLoop();

  /// With `lock` held on mu_: pops the oldest queued task, runs it with
  /// the lock released, and records its completion in its scope. Returns
  /// false (lock still held) when the queue is empty.
  bool RunOne(std::unique_lock<std::mutex>& lock);

  std::atomic<std::size_t> num_workers_{0};

  // Guards everything below and every scope's pending count and first
  // exception. cv_ is signalled when a task is queued, when a scope's
  // last task finishes, and at shutdown.
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Task> queue_;
  bool stop_ = false;
  std::vector<std::thread> threads_;
};

/// Fork/join handle: a group of tasks submitted to the shared scheduler
/// whose completion can be awaited together. Scopes may nest (a task may
/// create its own scope) because Wait() *helps*: while its tasks are
/// outstanding the waiting thread executes any queued task — its own
/// scope's, another scope's, anyone's — instead of blocking.
///
/// Exception contract: the first exception thrown by any task is captured
/// and rethrown from Wait(), which clears it; remaining tasks still run.
/// The destructor waits but swallows.
class TaskScope {
 public:
  TaskScope();
  ~TaskScope();

  TaskScope(const TaskScope&) = delete;
  TaskScope& operator=(const TaskScope&) = delete;

  /// Appends `fn` to the scheduler's queue and wakes the idle threads.
  void Submit(std::function<void()> fn);

  /// Blocks until every task submitted to this scope has finished,
  /// helping to execute queued tasks meanwhile; then rethrows the first
  /// task exception (clearing it). Reusable: Submit may be called again
  /// after Wait returns.
  void Wait();

  /// Tasks of this scope that have finished executing.
  std::uint64_t tasks_executed() const {
    return tasks_executed_.load(std::memory_order_relaxed);
  }

  /// Subset of tasks_executed() run by a thread other than the one that
  /// submitted them (a pool worker, or another scope's helping waiter).
  std::uint64_t tasks_stolen() const {
    return tasks_stolen_.load(std::memory_order_relaxed);
  }

 private:
  friend class TaskScheduler;

  void WaitNoThrow() noexcept;

  TaskScheduler& scheduler_;
  std::size_t pending_ = 0;            // Guarded by scheduler_.mu_.
  std::exception_ptr first_exception_;  // Guarded by scheduler_.mu_.
  std::atomic<std::uint64_t> tasks_executed_{0};
  std::atomic<std::uint64_t> tasks_stolen_{0};
};

}  // namespace tswarp

#endif  // TSWARP_COMMON_TASK_SCHEDULER_H_
