#ifndef TSWARP_COMMON_TASK_SCHEDULER_H_
#define TSWARP_COMMON_TASK_SCHEDULER_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace tswarp {

class TaskScope;

/// Process-wide work-stealing executor: a lazily started pool of
/// persistent worker threads, one Chase-Lev deque per worker, and a
/// mutex-guarded injection queue for submissions from non-worker threads.
/// Searches no longer spawn OS threads — they borrow workers from this
/// scheduler through a TaskScope, so a 350 ms query pays nanoseconds of
/// submission cost instead of milliseconds of thread creation.
///
/// Work distribution follows the classic work-stealing discipline
/// (Blumofe & Leiserson): a worker pushes and pops tasks on the *bottom*
/// of its own deque (LIFO — depth-first, cache-warm), while idle workers
/// steal from the *top* of a victim's deque chosen by randomized probing
/// (FIFO — the oldest, and for the search driver's lazy splits the
/// shallowest/largest, task). Tasks are tagged with their TaskScope, so
/// any thread can execute any task and scopes can nest freely.
///
/// Memory-order discipline: the deque is the Chase-Lev structure (owner
/// manipulates bottom, thieves CAS top), but the orderings are chosen
/// conservatively — release stores / acquire loads on the indices and
/// array pointer instead of standalone fences — because (a) task push /
/// steal frequency here is a few hundred per query, far below the rate
/// where relaxed-fence micro-optimizations matter, and (b) TSan does not
/// model standalone fences, so the conservative form keeps the scheduler
/// provably race-free under the CI TSan leg.
class TaskScheduler {
 public:
  /// Hard cap on pool size: per-worker state (deques, slots) is statically
  /// sized so worker growth never reallocates structures thieves read.
  static constexpr std::size_t kMaxWorkers = 64;

  /// Sentinel returned by CurrentWorkerId() on non-scheduler threads.
  static constexpr std::size_t kExternalThread =
      static_cast<std::size_t>(-1);

  /// The process-wide scheduler. First call constructs it; workers are
  /// only spawned by EnsureWorkers. Destroyed (workers joined) at exit.
  static TaskScheduler& Get();

  /// Ensures at least min(n, kMaxWorkers) persistent workers are running.
  /// Never shrinks the pool. Cheap when already satisfied (one relaxed
  /// load), so callers invoke it per search without caring about state.
  void EnsureWorkers(std::size_t n);

  std::size_t num_workers() const {
    return num_workers_.load(std::memory_order_acquire);
  }

  /// Index of the calling scheduler worker, or kExternalThread.
  static std::size_t CurrentWorkerId();

  /// Process-wide count of steal probes (attempts to take a task from
  /// another worker's deque or the injection queue by a thread that ran
  /// out of local work). Monotonic; read it before/after a region to
  /// attribute probes to that region. Probes from concurrent unrelated
  /// work land in the same counter — it is a process-wide gauge, not a
  /// per-query one.
  std::uint64_t steal_attempts() const {
    return steal_attempts_.load(std::memory_order_relaxed);
  }

  /// True while at least one thread is parked (or about to park) for lack
  /// of work. The search driver polls this (one relaxed load) to decide
  /// when to split its DFS — the lazy-splitting handshake.
  bool HasHungryThreads() const {
    return hungry_.load(std::memory_order_relaxed) > 0;
  }

  TaskScheduler(const TaskScheduler&) = delete;
  TaskScheduler& operator=(const TaskScheduler&) = delete;

 private:
  friend class TaskScope;

  /// One scheduled unit: the closure, its fork/join scope, and the worker
  /// id of the submitting thread (kExternalThread for injected tasks),
  /// which lets the executor classify the task as stolen or local.
  struct Task {
    std::function<void()> fn;
    TaskScope* scope;
    std::size_t submitter;
  };

  /// Chase-Lev work-stealing deque of Task*. The owner pushes/pops the
  /// bottom; thieves CAS the top. Growth keeps retired arrays alive until
  /// the deque is destroyed, so a thief holding a stale array pointer
  /// always reads valid (atomic) storage.
  class Deque {
   public:
    Deque();
    ~Deque();

    /// Owner only.
    void Push(Task* task);
    /// Owner only; nullptr when empty.
    Task* Pop();
    /// Any thief; nullptr when empty or lost a race.
    Task* Steal();

   private:
    struct Array {
      explicit Array(std::size_t capacity);
      std::size_t capacity;
      std::vector<std::atomic<Task*>> slots;
      std::atomic<Task*>& At(std::int64_t i) {
        return slots[static_cast<std::size_t>(i) & (capacity - 1)];
      }
    };

    void Grow(std::int64_t bottom, std::int64_t top);

    std::atomic<std::int64_t> top_{0};
    std::atomic<std::int64_t> bottom_{0};
    std::atomic<Array*> array_;
    // Owner-only (and destructor, ordered by thread join): every array
    // ever used, kept alive for racing thieves.
    std::vector<std::unique_ptr<Array>> arrays_;
  };

  TaskScheduler();
  ~TaskScheduler();

  void WorkerLoop(std::size_t id);

  /// One probe round over the injection queue and every worker deque
  /// (random start). Returns nullptr when nothing was found.
  Task* FindWork(std::size_t self);

  /// Enqueues a task from worker `self` (own deque) or an external thread
  /// (injection queue) and wakes a hungry thread if any.
  void Enqueue(Task* task, std::size_t self);

  /// Executes one task: runs the closure, captures the first exception
  /// into its scope, updates the scope counters, and retires the task.
  void Execute(Task* task);

  /// Wakes every parked thread (used by Enqueue and by scope completion).
  void WakeAll();

  std::atomic<std::size_t> num_workers_{0};
  std::atomic<std::uint64_t> steal_attempts_{0};
  std::atomic<std::size_t> hungry_{0};
  std::atomic<bool> stop_{false};

  // Fixed-size so EnsureWorkers never moves a deque another thread reads.
  Deque deques_[kMaxWorkers];
  std::vector<std::thread> threads_;  // Guarded by spawn_mu_.
  std::mutex spawn_mu_;

  std::mutex inject_mu_;
  std::deque<Task*> injected_;

  // Parking: threads that found no work sleep here; Enqueue and scope
  // completion notify. approx_tasks_ is the wake predicate — a count of
  // enqueued-but-not-yet-taken tasks (seq_cst pairs with the hungry_
  // handshake in Enqueue, so a submit cannot slip between a failed probe
  // and the park).
  std::mutex park_mu_;
  std::condition_variable park_cv_;
  std::atomic<std::int64_t> approx_tasks_{0};
};

/// Fork/join handle: a group of tasks submitted to the shared scheduler
/// whose completion can be awaited together. Scopes may nest (a task may
/// create its own scope) because Wait() *helps*: while its tasks are
/// outstanding the waiting thread executes any available task — its own
/// scope's, another scope's, anyone's — instead of blocking a worker.
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

  /// Enqueues `fn`. From a scheduler worker the task goes to that
  /// worker's own deque (LIFO, stealable from the top); from any other
  /// thread it goes to the injection queue.
  void Submit(std::function<void()> fn);

  /// One relaxed load: true when some thread is idle and a split/submit
  /// would be picked up immediately. The driver's lazy-split poll.
  bool WantsWork() const;

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
  /// submitted them — actual steals (including injected tasks picked up
  /// by workers, which is how every root task starts).
  std::uint64_t tasks_stolen() const {
    return tasks_stolen_.load(std::memory_order_relaxed);
  }

 private:
  friend class TaskScheduler;

  void WaitNoThrow() noexcept;

  TaskScheduler& scheduler_;
  std::atomic<std::size_t> pending_{0};
  std::atomic<std::uint64_t> tasks_executed_{0};
  std::atomic<std::uint64_t> tasks_stolen_{0};
  std::mutex exception_mu_;
  std::exception_ptr first_exception_;
};

}  // namespace tswarp

#endif  // TSWARP_COMMON_TASK_SCHEDULER_H_
