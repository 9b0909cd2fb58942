// Tests for the DESIGN.md §15 parallel data-plane primitives: the
// work-stealing LaneExecutor (epoch fan-out, steal-half balancing,
// exception propagation, the park-baseline rule at start-up and shutdown)
// and the vmcache-style optimistic version-stamped latch. Configure with
// -DTOSS_SANITIZE=thread to have TSan audit the lock-free paths.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include "platform/concurrency.hpp"
#include "util/optimistic.hpp"

namespace toss {
namespace {

// ---------------------------------------------------------------------------
// LaneExecutor

TEST(LaneExecutor, EveryIndexRunsExactlyOnce) {
  const size_t sizes[] = {0, 1, 2, 7, 16, 64, 105};
  for (int threads : {1, 2, 4}) {
    LaneExecutor exec(threads);
    EXPECT_EQ(exec.thread_count(), threads);
    for (int epoch = 0; epoch < 50; ++epoch) {
      for (const size_t n : sizes) {
        std::vector<std::atomic<int>> counts(n);
        exec.run_epoch(n, [&](size_t i) {
          counts[i].fetch_add(1, std::memory_order_relaxed);
        });
        for (size_t i = 0; i < n; ++i)
          ASSERT_EQ(counts[i].load(std::memory_order_relaxed), 1)
              << "threads=" << threads << " epoch=" << epoch << " n=" << n
              << " index=" << i;
      }
    }
  }
}

TEST(LaneExecutor, SingleParticipantRunsInline) {
  LaneExecutor exec(1);
  EXPECT_EQ(exec.thread_count(), 1);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> ran(8);
  exec.run_epoch(8, [&](size_t i) { ran[i] = std::this_thread::get_id(); });
  for (const auto& id : ran) EXPECT_EQ(id, caller);
  EXPECT_EQ(exec.steals(), 0u);
}

TEST(LaneExecutor, FirstExceptionPropagatesAndExecutorSurvives) {
  LaneExecutor exec(4);
  std::atomic<int> completed{0};
  EXPECT_THROW(exec.run_epoch(32,
                              [&](size_t i) {
                                if (i == 3)
                                  throw std::runtime_error("lane 3 failed");
                                completed.fetch_add(
                                    1, std::memory_order_relaxed);
                              }),
               std::runtime_error);
  // Every non-throwing index still completed — the epoch joins fully
  // before rethrowing, so no straggler leaks into the next epoch.
  EXPECT_EQ(completed.load(std::memory_order_relaxed), 31);
  // The executor is reusable after an epoch that threw.
  std::atomic<int> after{0};
  exec.run_epoch(16, [&](size_t) {
    after.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(after.load(std::memory_order_relaxed), 16);
}

TEST(LaneExecutor, UnevenLanesAreStolen) {
  // Lane costs are wildly uneven mid-drain (a cold restore is ~1000x a
  // warm hit); the executor must rebalance by stealing. Index 0 stalls its
  // owner, so the other participants run dry and must steal the stalled
  // slot's remainder. Bounded retry: one steal anywhere proves the path.
  LaneExecutor exec(4);
  std::atomic<int> total{0};
  for (int epoch = 0; epoch < 500 && exec.steals() == 0; ++epoch) {
    exec.run_epoch(64, [&](size_t i) {
      if (i == 0)
        for (int spin = 0; spin < 50; ++spin) std::this_thread::yield();
      total.fetch_add(1, std::memory_order_relaxed);
    });
  }
  EXPECT_GT(exec.steals(), 0u);
  EXPECT_EQ(total.load(std::memory_order_relaxed) % 64, 0);
}

TEST(LaneExecutor, RapidCreateDestroyDoesNotHang) {
  // Regression for the park-baseline rule: every worker waits for the
  // generation to move past its construction-time value (0). A worker that
  // instead read its baseline when its thread first ran, after
  // ~LaneExecutor's final bump, took the post-shutdown generation as its
  // baseline and waited for a wakeup that never came, deadlocking the
  // destructor's join on a loaded single-core host (the same rule behind
  // FirstEpochRunsOnEveryParticipant below). Rapid create/destroy cycles —
  // with and without an epoch in between — maximize the window; the ctest
  // timeout is the failure detector.
  for (int round = 0; round < 200; ++round) {
    LaneExecutor idle(4);  // destroyed before any worker may have run
  }
  for (int round = 0; round < 200; ++round) {
    LaneExecutor exec(4);
    std::atomic<int> ran{0};
    exec.run_epoch(4, [&](size_t) {
      ran.fetch_add(1, std::memory_order_relaxed);
    });
    ASSERT_EQ(ran.load(std::memory_order_relaxed), 4);
  }
}

TEST(LaneExecutor, FirstEpochRunsOnEveryParticipant) {
  // Regression for the park-baseline rule: a worker whose thread first ran
  // after the first run_epoch() had bumped the generation used to take
  // that bump as its baseline and park through the epoch, so the caller
  // stole its slot and ran the whole first epoch alone. Each index here
  // waits (bounded) for the other to start; both must have overlapped.
  for (int round = 0; round < 50; ++round) {
    LaneExecutor exec(2);
    std::atomic<int> started{0};
    std::array<bool, 2> overlapped{};
    exec.run_epoch(2, [&](size_t k) {
      started.fetch_add(1, std::memory_order_acq_rel);
      // Bounded at ~2 s of 1 ms naps.
      for (int nap = 0;
           nap < 2000 && started.load(std::memory_order_acquire) < 2; ++nap)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      overlapped[k] = started.load(std::memory_order_acquire) == 2;
    });
    ASSERT_TRUE(overlapped[0] && overlapped[1])
        << "round " << round << ": the first epoch ran serially";
  }
}

// ---------------------------------------------------------------------------
// OptimisticLatch

TEST(OptimisticLatch, ExclusiveUnlockBumpsVersion) {
  OptimisticLatch latch;
  const u64 v0 = latch.version();
  latch.lock_exclusive();
  latch.unlock_exclusive();
  EXPECT_EQ(latch.version(), v0 + 1);
  {
    ExclusiveLatchGuard guard(latch);
  }
  EXPECT_EQ(latch.version(), v0 + 2);
}

TEST(OptimisticLatch, SharedHoldersExcludeWritersNotEachOther) {
  OptimisticLatch latch;
  ASSERT_TRUE(latch.try_lock_shared());
  EXPECT_TRUE(latch.try_lock_shared());  // readers stack
  EXPECT_FALSE(latch.try_lock_exclusive());
  latch.unlock_shared();
  EXPECT_FALSE(latch.try_lock_exclusive());  // one reader still in
  latch.unlock_shared();
  EXPECT_TRUE(latch.try_lock_exclusive());
  EXPECT_FALSE(latch.try_lock_shared());  // writer excludes readers
  latch.unlock_exclusive();
}

TEST(OptimisticLatch, SharedHoldDoesNotBumpVersion) {
  // Reads must not invalidate optimistic snapshots — only writers do.
  OptimisticLatch latch;
  const u64 snap = latch.optimistic_begin();
  {
    SharedLatchGuard guard(latch);
  }
  EXPECT_TRUE(latch.validate(snap));
}

TEST(OptimisticLatch, ValidateFailsAfterWriterInterleaves) {
  OptimisticLatch latch;
  const u64 snap = latch.optimistic_begin();
  latch.lock_exclusive();
  latch.unlock_exclusive();
  EXPECT_FALSE(latch.validate(snap));
  // A fresh snapshot taken after the writer validates again.
  EXPECT_TRUE(latch.validate(latch.optimistic_begin()));
}

TEST(OptimisticLatch, OptimisticReadersSeeConsistentPairs) {
  // The protocol's soundness claim: a validated optimistic read of atomic
  // fields observed no writer, so multi-field invariants hold. A writer
  // keeps two atomics equal (mutating only under the exclusive latch);
  // readers that validate must never see them differ.
  OptimisticLatch latch;
  std::atomic<u64> a{0}, b{0};
  std::atomic<bool> stop{false};
  std::atomic<u64> torn{0}, validated{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        const u64 snap = latch.optimistic_begin();
        const u64 got_a = a.load(std::memory_order_acquire);
        const u64 got_b = b.load(std::memory_order_acquire);
        if (!latch.validate(snap)) continue;  // writer interleaved: retry
        validated.fetch_add(1, std::memory_order_relaxed);
        if (got_a != got_b) torn.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (u64 i = 1; i <= 20000; ++i) {
    ExclusiveLatchGuard guard(latch);
    a.store(i, std::memory_order_release);
    b.store(i, std::memory_order_release);
  }
  // On a single core the writer may finish before any reader is scheduled;
  // with the writer quiet every read validates, so this always terminates.
  while (validated.load(std::memory_order_acquire) == 0)
    std::this_thread::yield();
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  EXPECT_EQ(torn.load(std::memory_order_relaxed), 0u);
  EXPECT_GT(validated.load(std::memory_order_relaxed), 0u);
}

}  // namespace
}  // namespace toss
