#include "common/task_scheduler.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace tswarp {

namespace {

/// Worker id of the current thread; kExternalThread on non-pool threads.
thread_local std::size_t tl_worker_id = TaskScheduler::kExternalThread;

/// Cheap per-thread xorshift for randomized victim selection. Seeded from
/// the thread's identity, so no global state and no synchronization.
std::uint64_t NextRandom() {
  thread_local std::uint64_t state =
      0x9E3779B97F4A7C15ull ^
      (std::hash<std::thread::id>()(std::this_thread::get_id()) |
       1ull);
  state ^= state << 13;
  state ^= state >> 7;
  state ^= state << 17;
  return state;
}

}  // namespace

// ---------------------------------------------------------------------------
// Chase-Lev deque
// ---------------------------------------------------------------------------

TaskScheduler::Deque::Array::Array(std::size_t cap)
    : capacity(cap), slots(cap) {}

TaskScheduler::Deque::Deque() {
  auto initial = std::make_unique<Array>(64);
  array_.store(initial.get(), std::memory_order_relaxed);
  arrays_.push_back(std::move(initial));
}

TaskScheduler::Deque::~Deque() = default;

void TaskScheduler::Deque::Grow(std::int64_t bottom, std::int64_t top) {
  Array* old = array_.load(std::memory_order_relaxed);
  auto bigger = std::make_unique<Array>(old->capacity * 2);
  for (std::int64_t i = top; i < bottom; ++i) {
    bigger->At(i).store(old->At(i).load(std::memory_order_relaxed),
                        std::memory_order_relaxed);
  }
  array_.store(bigger.get(), std::memory_order_release);
  // The old array stays alive (arrays_) for thieves holding stale
  // pointers: its slots for indices in [top, bottom) still hold the same
  // values the new array does, so a racing Steal reads valid data either
  // way and the top CAS arbitrates ownership.
  arrays_.push_back(std::move(bigger));
}

void TaskScheduler::Deque::Push(Task* task) {
  const std::int64_t b = bottom_.load(std::memory_order_relaxed);
  const std::int64_t t = top_.load(std::memory_order_acquire);
  Array* a = array_.load(std::memory_order_relaxed);
  if (b - t >= static_cast<std::int64_t>(a->capacity)) {
    Grow(b, t);
    a = array_.load(std::memory_order_relaxed);
  }
  a->At(b).store(task, std::memory_order_release);
  // seq_cst (⊇ release) publishes the slot to thieves and joins the
  // owner/thief total order on (top, bottom).
  bottom_.store(b + 1, std::memory_order_seq_cst);
}

TaskScheduler::Task* TaskScheduler::Deque::Pop() {
  const std::int64_t b = bottom_.load(std::memory_order_relaxed) - 1;
  Array* a = array_.load(std::memory_order_relaxed);
  bottom_.store(b, std::memory_order_seq_cst);
  std::int64_t t = top_.load(std::memory_order_seq_cst);
  Task* task = nullptr;
  if (t <= b) {
    task = a->At(b).load(std::memory_order_acquire);
    if (t == b) {
      // Last element: race thieves for it via the top CAS.
      if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                        std::memory_order_relaxed)) {
        task = nullptr;  // A thief got it first.
      }
      bottom_.store(b + 1, std::memory_order_seq_cst);
    }
  } else {
    bottom_.store(b + 1, std::memory_order_seq_cst);
  }
  return task;
}

TaskScheduler::Task* TaskScheduler::Deque::Steal() {
  std::int64_t t = top_.load(std::memory_order_seq_cst);
  const std::int64_t b = bottom_.load(std::memory_order_seq_cst);
  if (t >= b) return nullptr;
  Array* a = array_.load(std::memory_order_acquire);
  Task* task = a->At(t).load(std::memory_order_acquire);
  if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                    std::memory_order_relaxed)) {
    return nullptr;  // Lost the race to the owner or another thief.
  }
  return task;
}

// ---------------------------------------------------------------------------
// Scheduler
// ---------------------------------------------------------------------------

TaskScheduler& TaskScheduler::Get() {
  static TaskScheduler scheduler;
  return scheduler;
}

TaskScheduler::TaskScheduler() = default;

TaskScheduler::~TaskScheduler() {
  stop_.store(true, std::memory_order_seq_cst);
  WakeAll();
  for (std::thread& t : threads_) t.join();
}

std::size_t TaskScheduler::CurrentWorkerId() { return tl_worker_id; }

void TaskScheduler::EnsureWorkers(std::size_t n) {
  n = std::min(n, kMaxWorkers);
  if (num_workers_.load(std::memory_order_acquire) >= n) return;
  std::lock_guard<std::mutex> lock(spawn_mu_);
  std::size_t current = num_workers_.load(std::memory_order_relaxed);
  while (current < n) {
    threads_.emplace_back([this, current] { WorkerLoop(current); });
    ++current;
    num_workers_.store(current, std::memory_order_release);
  }
}

void TaskScheduler::WakeAll() {
  // Taking park_mu_ makes the notify atomic with respect to a parking
  // thread's predicate check, so a wakeup can never fall into the gap
  // between "predicate false" and "blocked on the cv".
  std::lock_guard<std::mutex> lock(park_mu_);
  park_cv_.notify_all();
}

void TaskScheduler::Enqueue(Task* task, std::size_t self) {
  if (self != kExternalThread) {
    deques_[self].Push(task);
  } else {
    std::lock_guard<std::mutex> lock(inject_mu_);
    injected_.push_back(task);
  }
  approx_tasks_.fetch_add(1, std::memory_order_seq_cst);
  if (hungry_.load(std::memory_order_seq_cst) > 0) WakeAll();
}

TaskScheduler::Task* TaskScheduler::FindWork(std::size_t self) {
  // 1. Own deque, newest first (depth-first execution, warm caches).
  if (self != kExternalThread) {
    if (Task* task = deques_[self].Pop()) {
      approx_tasks_.fetch_sub(1, std::memory_order_seq_cst);
      return task;
    }
  }
  // 2. Injection queue (externally submitted roots), oldest first.
  {
    std::lock_guard<std::mutex> lock(inject_mu_);
    if (!injected_.empty()) {
      Task* task = injected_.front();
      injected_.pop_front();
      approx_tasks_.fetch_sub(1, std::memory_order_seq_cst);
      return task;
    }
  }
  // 3. Steal from a random victim, scanning the whole pool once.
  const std::size_t n = num_workers_.load(std::memory_order_acquire);
  if (n != 0) {
    const std::size_t start = static_cast<std::size_t>(NextRandom()) % n;
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t victim = (start + k) % n;
      if (victim == self) continue;
      steal_attempts_.fetch_add(1, std::memory_order_relaxed);
      if (Task* task = deques_[victim].Steal()) {
        approx_tasks_.fetch_sub(1, std::memory_order_seq_cst);
        return task;
      }
    }
  }
  return nullptr;
}

void TaskScheduler::Execute(Task* task) {
  TaskScope* scope = task->scope;
  try {
    task->fn();
  } catch (...) {
    std::lock_guard<std::mutex> lock(scope->exception_mu_);
    if (scope->first_exception_ == nullptr) {
      scope->first_exception_ = std::current_exception();
    }
  }
  scope->tasks_executed_.fetch_add(1, std::memory_order_relaxed);
  if (CurrentWorkerId() != task->submitter) {
    scope->tasks_stolen_.fetch_add(1, std::memory_order_relaxed);
  }
  delete task;
  // After this decrement the scope may be destroyed by its waiter; touch
  // only scheduler state past this point.
  if (scope->pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    WakeAll();
  }
}

void TaskScheduler::WorkerLoop(std::size_t id) {
  tl_worker_id = id;
  for (;;) {
    if (Task* task = FindWork(id)) {
      Execute(task);
      continue;
    }
    if (stop_.load(std::memory_order_acquire)) return;
    std::unique_lock<std::mutex> lock(park_mu_);
    hungry_.fetch_add(1, std::memory_order_seq_cst);
    park_cv_.wait(lock, [this] {
      return stop_.load(std::memory_order_relaxed) ||
             approx_tasks_.load(std::memory_order_seq_cst) > 0;
    });
    hungry_.fetch_sub(1, std::memory_order_seq_cst);
  }
}

// ---------------------------------------------------------------------------
// TaskScope
// ---------------------------------------------------------------------------

TaskScope::TaskScope() : scheduler_(TaskScheduler::Get()) {}

TaskScope::~TaskScope() { WaitNoThrow(); }

void TaskScope::Submit(std::function<void()> fn) {
  const std::size_t self = TaskScheduler::CurrentWorkerId();
  auto* task = new TaskScheduler::Task{std::move(fn), this, self};
  pending_.fetch_add(1, std::memory_order_relaxed);
  scheduler_.Enqueue(task, self);
}

bool TaskScope::WantsWork() const { return scheduler_.HasHungryThreads(); }

void TaskScope::Wait() {
  const std::size_t self = TaskScheduler::CurrentWorkerId();
  while (pending_.load(std::memory_order_acquire) != 0) {
    // Help: run anyone's queued task rather than blocking a thread. This
    // is what makes nested scopes (batch coalescing) deadlock-free.
    if (TaskScheduler::Task* task = scheduler_.FindWork(self)) {
      scheduler_.Execute(task);
      continue;
    }
    std::unique_lock<std::mutex> lock(scheduler_.park_mu_);
    scheduler_.hungry_.fetch_add(1, std::memory_order_seq_cst);
    scheduler_.park_cv_.wait(lock, [this] {
      return pending_.load(std::memory_order_acquire) == 0 ||
             scheduler_.approx_tasks_.load(std::memory_order_seq_cst) > 0;
    });
    scheduler_.hungry_.fetch_sub(1, std::memory_order_seq_cst);
  }
  std::exception_ptr e;
  {
    std::lock_guard<std::mutex> lock(exception_mu_);
    e = std::exchange(first_exception_, nullptr);
  }
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
