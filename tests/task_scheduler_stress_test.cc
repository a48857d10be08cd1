// Randomized load tests for the process-wide scheduler (one FIFO queue
// drained by persistent workers, with Wait helping run queued tasks):
// recursive fork/join from inside tasks (nested scopes), several
// concurrent fork/join scopes (concurrent queries on the shared pool),
// long chains of tasks that each submit one successor, and scope
// teardown with tasks still queued. The stress label puts this binary in
// the CI TSan leg.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/task_scheduler.h"

namespace tswarp {
namespace {

/// Recursive binary fork: every task increments `count` and forks two
/// children until `depth` runs out — 2^(depth+1) - 1 increments total.
void Fork(TaskScope& scope, std::atomic<std::uint64_t>& count, int depth) {
  count.fetch_add(1, std::memory_order_relaxed);
  if (depth == 0) return;
  scope.Submit([&scope, &count, depth] { Fork(scope, count, depth - 1); });
  scope.Submit([&scope, &count, depth] { Fork(scope, count, depth - 1); });
}

TEST(TaskSchedulerStressTest, RecursiveForkJoin) {
  TaskScheduler::Get().EnsureWorkers(4);
  constexpr int kDepth = 9;
  TaskScope scope;
  std::atomic<std::uint64_t> count{0};
  scope.Submit([&scope, &count] { Fork(scope, count, kDepth); });
  scope.Wait();
  EXPECT_EQ(count.load(), (1ull << (kDepth + 1)) - 1);
  EXPECT_EQ(scope.tasks_executed(), (1ull << (kDepth + 1)) - 1);
}

TEST(TaskSchedulerStressTest, ConcurrentScopesStayIsolated) {
  TaskScheduler::Get().EnsureWorkers(4);
  constexpr int kScopes = 6;
  constexpr int kDepth = 7;
  std::vector<std::thread> threads;
  std::vector<std::atomic<std::uint64_t>> counts(kScopes);
  for (int s = 0; s < kScopes; ++s) {
    threads.emplace_back([&counts, s] {
      // Each external thread runs its own fork/join query against the
      // shared pool; per-scope counters must not bleed across scopes.
      TaskScope scope;
      scope.Submit([&scope, &counts, s] { Fork(scope, counts[s], kDepth); });
      scope.Wait();
      EXPECT_EQ(scope.tasks_executed(), (1ull << (kDepth + 1)) - 1);
    });
  }
  for (std::thread& t : threads) t.join();
  for (int s = 0; s < kScopes; ++s) {
    EXPECT_EQ(counts[s].load(), (1ull << (kDepth + 1)) - 1);
  }
}

TEST(TaskSchedulerStressTest, SkewedChainsForceStealing) {
  TaskScheduler::Get().EnsureWorkers(4);
  // Long dependent chains where each task submits exactly one successor
  // to the shared queue: at any moment at most four tasks are queued, so
  // progress relies on the workers and the waiting thread all taking
  // them from the one queue. (The name dates from the deleted per-worker
  // deques, when a chain's head had to be stolen.)
  constexpr int kChains = 4;
  constexpr int kLinks = 2000;
  TaskScope scope;
  std::atomic<std::uint64_t> sum{0};
  std::function<void(int)> link = [&](int remaining) {
    sum.fetch_add(1, std::memory_order_relaxed);
    if (remaining > 0) {
      scope.Submit([&link, remaining] { link(remaining - 1); });
    }
  };
  for (int c = 0; c < kChains; ++c) {
    scope.Submit([&link] { link(kLinks - 1); });
  }
  scope.Wait();
  EXPECT_EQ(sum.load(), static_cast<std::uint64_t>(kChains) * kLinks);
}

TEST(TaskSchedulerStressTest, TeardownDrainsQueuedTasks) {
  TaskScheduler::Get().EnsureWorkers(4);
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> ran{0};
    {
      TaskScope scope;
      for (int i = 0; i < 64; ++i) {
        scope.Submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
      }
      // Destructor path: the implicit Wait must drain everything before
      // the captured `ran` goes out of scope.
    }
    ASSERT_EQ(ran.load(), 64);
  }
}

TEST(TaskSchedulerStressTest, ThrowingTasksUnderLoad) {
  TaskScheduler::Get().EnsureWorkers(4);
  for (int round = 0; round < 20; ++round) {
    TaskScope scope;
    std::atomic<int> ran{0};
    for (int i = 0; i < 128; ++i) {
      if (i % 16 == 3) {
        scope.Submit([] { throw std::runtime_error("stress"); });
      } else {
        scope.Submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
      }
    }
    EXPECT_THROW(scope.Wait(), std::runtime_error);
    EXPECT_EQ(ran.load(), 120);
  }
}

}  // namespace
}  // namespace tswarp
