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
#include <array>
#include <functional>
#include <vector>

#include "vmm/microvm.hpp"

namespace toss {

// ---------------------------------------------------------------------------
// Fork-join lane executor (DESIGN.md §15).
//
// run_epoch(n, fn) uses p = min(n, threads) participants: the caller plus
// p - 1 threads that live for this epoch only. Every participant claims
// indices from one shared counter until it reaches n, so a slow lane
// never holds back the indices behind it. The join is the barrier: no
// state survives an epoch.
//
// Ownership: the executor schedules, it never reorders data — fn(k) must
// touch only state owned by index k (lane-local state in the engine), and
// every cross-index decision stays at the serial barrier. The thread exit
// at the join orders every fn(k) before whatever the caller runs next, so
// lane state needs no lock or atomic of its own.
//
// Errors: a throwing index does not stop the epoch — every index runs.
// Each participant records its lowest failing index in its own slot, and
// after the join the error of the lowest failing index overall is
// rethrown, so which error a failed epoch reports does not depend on
// timing or on the thread count.
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
  /// every index has completed. The exception of the lowest failing index
  /// is rethrown here.
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
