// Concurrency contention model (Fig 9).
//
// The paper runs up to 20 concurrent invocations on a 20-core host, so CPU
// time does not contend — shared memory tiers and the snapshot disk do.
// Each invocation is first simulated solo (its ExecutionResult carries
// per-tier time and device-bandwidth demand); this model then scales the
// contended components by each resource's aggregate utilization:
//
//   utilization(tier) = sum_i read_demand_i/read_bw + write_demand_i/write_bw
//   factor = max(1, utilization)
//
// evaluated over the makespan, iterated to a fixed point (slower
// invocations spread their demand over a longer window, lowering pressure).
#pragma once

#include <algorithm>
#include <functional>
#include <mutex>
#include <vector>

#include "util/contracts.hpp"
#include "vmm/microvm.hpp"

namespace toss {

// ---------------------------------------------------------------------------
// Lock-rank deadlock detection (checked builds).
//
// Every real mutex in the platform layer carries a rank; a thread may only
// acquire locks in strictly increasing rank order. Under TOSS_CHECKED an
// out-of-order (or same-rank, i.e. potentially ABBA) acquisition aborts
// immediately with both lock names — turning a once-in-a-thousand-runs
// deadlock hang into a deterministic crash at the first wrong nesting. In
// unchecked builds RankedMutex is a plain std::mutex wrapper with zero
// bookkeeping.
// ---------------------------------------------------------------------------

/// Global lock ordering, lowest acquired first: a thread holding a lock
/// may take only higher-ranked ones, never the reverse. The
/// LaneExecutor's error lock ranks below everything: it is held only to
/// record an exception — never across a lane task — so a participant
/// inside a task may take any platform lock, while code holding a
/// platform lock can never re-enter the executor.
enum class LockRank : int {
  kLaneExecutor = 6,  ///< LaneExecutor first-error record
  /// Host::mu_, which guards the host's first-failure record: lanes of
  /// one epoch run concurrently and any of them may fail.
  kEngineScheduler = 10,
};

/// std::mutex with a rank, compatible with std::lock_guard /
/// std::unique_lock / std::condition_variable_any. Checked builds maintain
/// a thread-local stack of held ranks and abort on out-of-order
/// acquisition; a condition-variable wait unlocks (popping the rank) and
/// re-locks (re-validating), so waiting never wedges the detector.
class RankedMutex {
 public:
  RankedMutex(LockRank rank, const char* name) : rank_(rank), name_(name) {}

  RankedMutex(const RankedMutex&) = delete;
  RankedMutex& operator=(const RankedMutex&) = delete;

  void lock();
  void unlock();
  bool try_lock();

  LockRank rank() const { return rank_; }
  const char* name() const { return name_; }

 private:
  std::mutex mu_;
  LockRank rank_;
  const char* name_;
};

namespace detail {
/// Checked-build validation hooks (no-ops when TOSS_CHECKED is off).
/// Exposed so tests can drive the detector without a real deadlock.
void lock_rank_push(const RankedMutex& m);
void lock_rank_pop(const RankedMutex& m);
/// nullopt when acquiring `m` respects the rank order for this thread,
/// else a diagnostic naming the conflicting held lock.
std::optional<std::string> lock_rank_violation(const RankedMutex& m);
}  // namespace detail

// ---------------------------------------------------------------------------
// Fork-join lane executor (DESIGN.md §15).
//
// run_epoch(n, fn) uses p = min(n, threads) participants: the caller plus
// p - 1 threads that live for this epoch only. Every participant claims
// indices from one shared counter until it reaches n, so a slow lane
// never holds back the indices behind it. The join is the barrier: no
// state survives an epoch.
//
// Determinism: the executor schedules, it never reorders data — fn(k)
// must touch only state owned by index k (lane-local state in the
// engine), and every cross-index decision stays at the serial barrier.
// The first exception thrown by any index is rethrown to the caller after
// the epoch joins.
// ---------------------------------------------------------------------------

class LaneExecutor {
 public:
  /// Total parallelism including the calling thread (clamped to >= 1).
  explicit LaneExecutor(int threads) : threads_(std::max(threads, 1)) {}

  /// Participants per epoch at most (spawned threads + the caller).
  int thread_count() const { return threads_; }

  /// std::thread::hardware_concurrency with a floor of 1.
  static int hardware_threads();

  /// Run fn(0..n-1) across min(n, threads) participants; returns when
  /// every index has completed. Inline with one participant. The first
  /// exception thrown by any index is rethrown here.
  void run_epoch(size_t n, const std::function<void(size_t)>& fn);

 private:
  int threads_;
};

namespace detail {
constexpr std::array<double, kMaxTiers> unit_factors() {
  std::array<double, kMaxTiers> a{};
  for (auto& v : a) v = 1.0;
  return a;
}
}  // namespace detail

/// One contention pool per ladder rank (0 = fastest) plus the snapshot
/// disk. Ranks beyond the active ladder stay at 1.0.
struct ContentionFactors {
  std::array<double, kMaxTiers> tier = detail::unit_factors();
  double disk = 1.0;
};

struct ConcurrencyOutcome {
  /// Per-invocation contended execution time (same order as input).
  std::vector<Nanos> exec_ns;
  ContentionFactors factors;
};

/// Scale the solo runs' execution times under K-way concurrency (K = size
/// of `solo`). All invocations are assumed to start together, as in the
/// paper's scalability experiment.
ConcurrencyOutcome run_concurrent(const SystemConfig& cfg,
                                  const std::vector<ExecutionResult>& solo);

}  // namespace toss
