#include "platform/concurrency.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <exception>
#include <thread>

namespace toss {

// ---------------------------------------------------------------------------
// LaneExecutor (fork-join epochs, DESIGN.md §15).

int LaneExecutor::hardware_threads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

void LaneExecutor::run_epoch(size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  const size_t p = std::min(n, static_cast<size_t>(threads_));
  // One slot per participant, written only by that participant: its
  // lowest failing index and the error it threw.
  struct Failure {
    size_t index = SIZE_MAX;
    std::exception_ptr error;
  };
  std::vector<Failure> failures(p);
  std::atomic<size_t> next{0};
  const auto participate = [&](Failure& failure) {
    for (;;) {
      const size_t i = next++;
      if (i >= n) return;
      try {
        fn(i);
        // Not swallowed: captured whole and rethrown after the join.
      } catch (...) {  // toss-lint: allow(swallowed-error)
        if (i < failure.index) failure = {i, std::current_exception()};
      }
    }
  };
  {
    // jthreads join on every exit path, a failed spawn included.
    std::vector<std::jthread> helpers;
    helpers.reserve(p - 1);
    for (size_t t = 1; t < p; ++t)
      helpers.emplace_back([&, t] { participate(failures[t]); });
    participate(failures[0]);
  }
  const auto lowest = std::min_element(
      failures.begin(), failures.end(),
      [](const Failure& a, const Failure& b) { return a.index < b.index; });
  if (lowest->error) std::rethrow_exception(lowest->error);
}

ConcurrencyOutcome run_concurrent(const SystemConfig& cfg,
                                  const std::vector<ExecutionResult>& solo) {
  ConcurrencyOutcome out;
  out.exec_ns.resize(solo.size());
  for (size_t i = 0; i < solo.size(); ++i) out.exec_ns[i] = solo[i].exec_ns;
  if (solo.empty()) return out;

  // Offered-load saturation: each job consumes a fraction of a device equal
  // to (device time its demand needs at full speed) / (its solo execution
  // time) — i.e. its duty cycle on that device. When the jobs' summed duty
  // cycles exceed 1, the device is oversubscribed and every job's time on
  // it stretches by the total offered load. Every ladder rank is its own
  // pool — CXL traffic does not contend with DRAM or PMem traffic. This is
  // what makes 20 fault-heavy REAP invocations collapse on the snapshot
  // disk while a TOSS pagerank — whose hot half stayed in DRAM and whose
  // deep-tier duty cycles are low — keeps scaling like DRAM (Fig 9).
  const size_t ranks = cfg.tier_count();
  std::array<double, kMaxTiers> tier_load{};
  double disk_load = 0;
  for (const auto& r : solo) {
    if (r.exec_ns <= 0) continue;
    for (size_t rank = 0; rank < ranks; ++rank) {
      const TierSpec& spec = cfg.tiers[rank];
      const Nanos util = r.tier_read_bytes[rank] / spec.read_bw_bytes_per_ns +
                         r.tier_write_bytes[rank] / spec.write_bw_bytes_per_ns;
      tier_load[rank] += util / r.exec_ns;
    }
    const Nanos disk_util =
        static_cast<double>(r.disk_pages) / cfg.disk.random_read_iops * 1e9;
    disk_load += disk_util / r.exec_ns;
  }

  ContentionFactors f;
  for (size_t rank = 0; rank < ranks; ++rank)
    f.tier[rank] = std::max(1.0, tier_load[rank]);
  f.disk = std::max(1.0, disk_load);

  for (size_t i = 0; i < solo.size(); ++i) {
    const auto& r = solo[i];
    const Nanos other_fault = r.fault_ns - r.disk_ns;
    Nanos t = r.cpu_ns + r.profiling_overhead_ns + other_fault;
    for (size_t rank = 0; rank < ranks; ++rank)
      t += r.mem_tier_ns[rank] * f.tier[rank];
    out.exec_ns[i] = t + r.disk_ns * f.disk;
  }
  out.factors = f;
  return out;
}

}  // namespace toss
