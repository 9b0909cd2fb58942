#include "platform/concurrency.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <exception>
#include <thread>

namespace toss {

namespace detail {

namespace {
// Ranks (not pointers) of the locks this thread currently holds, in
// acquisition order. thread_local so the detector needs no global lock of
// its own.
thread_local std::vector<const RankedMutex*> t_held_locks;
}  // namespace

std::optional<std::string> lock_rank_violation(const RankedMutex& m) {
  if (t_held_locks.empty()) return std::nullopt;
  const RankedMutex* top = t_held_locks.back();
  if (static_cast<int>(m.rank()) > static_cast<int>(top->rank()))
    return std::nullopt;
  return std::string("lock-rank violation: acquiring '") + m.name() +
         "' (rank " + std::to_string(static_cast<int>(m.rank())) +
         ") while holding '" + top->name() + "' (rank " +
         std::to_string(static_cast<int>(top->rank())) +
         "); locks must be taken in increasing rank order";
}

void lock_rank_push(const RankedMutex& m) { t_held_locks.push_back(&m); }

void lock_rank_pop(const RankedMutex& m) {
  // Unlocks are LIFO in practice (lock_guard / unique_lock / cv wait), but
  // tolerate out-of-order release: erase the most recent matching entry.
  for (auto it = t_held_locks.rbegin(); it != t_held_locks.rend(); ++it) {
    if (*it == &m) {
      t_held_locks.erase(std::next(it).base());
      return;
    }
  }
}

}  // namespace detail

void RankedMutex::lock() {
#ifdef TOSS_CHECKED
  TOSS_VALIDATE(detail::lock_rank_violation(*this));
#endif
  mu_.lock();
#ifdef TOSS_CHECKED
  detail::lock_rank_push(*this);
#endif
}

void RankedMutex::unlock() {
#ifdef TOSS_CHECKED
  detail::lock_rank_pop(*this);
#endif
  mu_.unlock();
}

bool RankedMutex::try_lock() {
#ifdef TOSS_CHECKED
  TOSS_VALIDATE(detail::lock_rank_violation(*this));
#endif
  const bool acquired = mu_.try_lock();
#ifdef TOSS_CHECKED
  if (acquired) detail::lock_rank_push(*this);
#endif
  return acquired;
}

// ---------------------------------------------------------------------------
// LaneExecutor (fork-join epochs, DESIGN.md §15).

int LaneExecutor::hardware_threads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

void LaneExecutor::run_epoch(size_t n, const std::function<void(size_t)>& fn) {
  const size_t p = std::min(n, static_cast<size_t>(threads_));
  if (p <= 1) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::atomic<size_t> next{0};
  RankedMutex error_mu{LockRank::kLaneExecutor, "LaneExecutor::error_mu"};
  std::exception_ptr first_error;
  const auto participate = [&] {
    for (;;) {
      const size_t i = next++;
      if (i >= n) return;
      try {
        fn(i);
        // Not swallowed: captured whole and rethrown after the join.
      } catch (...) {  // toss-lint: allow(swallowed-error)
        std::lock_guard<RankedMutex> lock(error_mu);
        if (!first_error) first_error = std::current_exception();
      }
    }
  };
  {
    // jthreads join on every exit path, a failed spawn included.
    std::vector<std::jthread> helpers;
    helpers.reserve(p - 1);
    for (size_t t = 1; t < p; ++t) helpers.emplace_back(participate);
    participate();
  }
  if (first_error) std::rethrow_exception(first_error);
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
