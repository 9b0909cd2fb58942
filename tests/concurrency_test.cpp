// Tests for the DESIGN.md §15 parallel data-plane primitives: the
// fork-join LaneExecutor (epoch fan-out, dynamic claiming past a stalled
// index, exception propagation, every participant in the first epoch)
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

TEST(LaneExecutor, StalledIndexDoesNotHoldBackTheEpoch) {
  // Lane costs are wildly uneven mid-drain (a cold restore is ~1000x a
  // warm hit), so indices are claimed dynamically: while index 0 stalls
  // its participant, the others must claim and finish all 63 remaining
  // indices. A static partition would leave index 0's share queued behind
  // it, and the wait below would time out.
  constexpr size_t kN = 64;
  LaneExecutor exec(4);
  std::atomic<size_t> done{0};
  size_t done_while_stalled = 0;
  exec.run_epoch(kN, [&](size_t i) {
    if (i != 0) {
      done.fetch_add(1, std::memory_order_acq_rel);
      return;
    }
    // Bounded at ~2 s of 1 ms naps.
    for (int nap = 0;
         nap < 2000 && done.load(std::memory_order_acquire) < kN - 1; ++nap)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    done_while_stalled = done.load(std::memory_order_acquire);
  });
  EXPECT_EQ(done_while_stalled, kN - 1)
      << "other indices finished while index 0 stalled";
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
