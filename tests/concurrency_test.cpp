// Tests for the DESIGN.md §15 fork-join LaneExecutor: epoch fan-out,
// dynamic claiming past a stalled index, error propagation chosen by index
// order, and every participant in the first epoch. Configure with
// -DTOSS_SANITIZE=thread to have TSan audit the claim counter and the join.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "platform/concurrency.hpp"

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
  for (int threads : {1, 2, 4}) {
    LaneExecutor exec(threads);
    std::atomic<int> completed{0};
    EXPECT_THROW(exec.run_epoch(32,
                                [&](size_t i) {
                                  if (i == 3)
                                    throw std::runtime_error("lane 3 failed");
                                  completed.fetch_add(
                                      1, std::memory_order_relaxed);
                                }),
                 std::runtime_error);
    // Every non-throwing index still completed, a single participant
    // included — the epoch joins fully before rethrowing, so no straggler
    // leaks into the next epoch.
    EXPECT_EQ(completed.load(std::memory_order_relaxed), 31)
        << "threads=" << threads;
    // The executor is reusable after an epoch that threw.
    std::atomic<int> after{0};
    exec.run_epoch(16, [&](size_t) {
      after.fetch_add(1, std::memory_order_relaxed);
    });
    EXPECT_EQ(after.load(std::memory_order_relaxed), 16)
        << "threads=" << threads;
  }
}

TEST(LaneExecutor, LowestFailingIndexWinsAtEveryThreadCount) {
  // Two indices fail with different errors, and the higher one throws
  // first in wall-clock time: the lower index waits for it. The epoch must
  // still rethrow the lower index's error at every thread count, so the
  // error a failed epoch reports does not depend on scheduling.
  constexpr size_t kLow = 2;
  constexpr size_t kHigh = 5;
  for (int threads : {1, 2, 4}) {
    LaneExecutor exec(threads);
    for (int repeat = 0; repeat < 20; ++repeat) {
      std::atomic<bool> high_thrown{false};
      std::string what;
      try {
        exec.run_epoch(8, [&](size_t i) {
          if (i == kHigh) {
            high_thrown.store(true, std::memory_order_release);
            throw std::runtime_error("high");
          }
          if (i != kLow) return;
          // One participant runs the indices in order, so it has nothing
          // to wait for. Otherwise wait, bounded at ~2 s of 1 ms naps, then
          // give the higher index's error a moment to be recorded.
          if (threads > 1) {
            for (int nap = 0;
                 nap < 2000 && !high_thrown.load(std::memory_order_acquire);
                 ++nap)
              std::this_thread::sleep_for(std::chrono::milliseconds(1));
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
          }
          throw std::runtime_error("low");
        });
      } catch (const std::runtime_error& e) {
        what = e.what();
      }
      ASSERT_EQ(what, "low") << "threads=" << threads << " repeat=" << repeat;
    }
  }
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

}  // namespace
}  // namespace toss
