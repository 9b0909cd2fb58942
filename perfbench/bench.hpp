// Shared vocabulary of the repo benchmark (toss_perfbench).
//
// The benchmark drives the public API only (toss.hpp). workloads.cpp holds
// the three workloads and their untraced rounds; traced.cpp holds the
// 1-worker traced run that times each layer's public entry points; main.cpp
// parses arguments, applies the build guard and prints the result line.
#pragma once

#include <chrono>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "toss.hpp"

namespace perfbench {

using toss::Nanos;
using toss::u64;

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// a / b, or 0 when nothing was counted (keeps the result line valid JSON).
inline double ratio(double a, double b) { return b > 0 ? a / b : 0; }

/// Workers for every untraced run. Half of a 4-way box: at 4 workers the
/// wall time of a run on a shared machine spreads far more from run to run.
inline constexpr int kWorkers = 2;

enum class Workload { kTieredSteady, kLifecycleCold, kClusterOverload };

bool parse_workload(std::string_view name, Workload* out);

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// FNV-1a over the canonical bytes of a ledger; doubles hash by bit pattern,
/// so the digest changes when any simulated value moves by one ulp.
class Digest {
 public:
  void add(u64 v);
  void add(double v);
  void add(std::string_view s);
  std::string hex() const;

 private:
  u64 h_ = 1469598102934665603ULL;
};

/// One lane's ledger as the benchmark checks and digests it. Both the
/// engine reports and the traced single-lane path are reduced to this, so
/// their digests are comparable.
struct LaneLedger {
  std::string name;
  toss::QosClass qos = toss::QosClass::kNone;
  u64 submitted = 0;  ///< requests the benchmark handed the lane
  toss::FunctionStats stats;
  toss::TossPhase final_phase = toss::TossPhase::kInitial;
  u64 fast_resident_bytes = 0;  ///< fast-tier bytes the lane pins at the end
  const std::vector<toss::InvocationOutcome>* outcomes = nullptr;
  toss::OverloadStats overload;  ///< all-zero on the legacy scheduler
  const std::vector<toss::ShedEvent>* shed_events = nullptr;
};

/// Simulated and accounting figures of a round's timed part.
struct SimSummary {
  u64 offered = 0;
  u64 completed = 0;   ///< served and finished (not shed, not incomplete)
  u64 incomplete = 0;  ///< served but every recovery rung was exhausted
  u64 shed = 0;
  u64 slo_met = 0;  ///< completed within the deadline (no deadline = met)
  u64 gold_offered = 0;
  u64 gold_slo_met = 0;
  std::vector<double> latency_ms;  ///< restore setup + execution
  double setup_ms = 0;  ///< sum of simulated restore setups
  double charge = 0;  ///< PricingPlan dollars over the timed part
  double dram_mb = 0;
  /// Sums of the simulated SetupResult / ExecutionResult counts over the
  /// completed timed-part invocations (the traced run's vmm.* and mem.*).
  u64 mappings = 0;
  u64 eager_pages = 0;
  u64 minor_faults = 0;
  u64 major_faults = 0;
  u64 touched_pages = 0;
  u64 disk_pages = 0;
  u64 slow_accesses = 0;
  u64 total_accesses = 0;
};

/// What one untraced round produces.
struct Round {
  double setup_s = 0;     ///< construction + warm-up + calibration (median)
  double timed_s = 0;     ///< the timed drain / run
  double throughput = 0;  ///< completed invocations per timed wall second
  std::string digest;
  SimSummary sim;
  std::vector<std::string> violations;  ///< correctness-gate failures
};

/// Counters the cluster and overload scheduler expose (per_layer platform.*).
struct PlatformCounters {
  u64 epochs = 0;
  u64 shed_queue_full = 0;
  u64 shed_admission_closed = 0;
  u64 shed_deadline = 0;
  u64 deadline_misses = 0;
  u64 queue_peak = 0;
  u64 admission_closures = 0;
  u64 keepalive_evictions = 0;
  u64 migrations = 0;
};

/// Run one untraced round of `workload` at `threads` workers. `adds_s`,
/// when non-null, receives the wall time spent in each add() call.
Round run_round(Workload workload, u64 seed, int threads,
                std::vector<double>* adds_s = nullptr,
                PlatformCounters* counters = nullptr);

/// End-to-end metrics over the rounds of one untraced run.
std::vector<Metric> end_to_end_metrics(const std::vector<Round>& rounds,
                                       double peak_rss_mb);

/// The traced run: per-layer metrics plus the digest it reproduced.
struct TracedResult {
  std::vector<Metric> metrics;
  std::string digest;
  SimSummary sim;  ///< the untraced kWorkers round's timed part
  std::vector<std::string> violations;
};

TracedResult run_traced(Workload workload, u64 seed);

// ---- helpers shared by workloads.cpp and traced.cpp ----

/// The round's registrations and request streams. Lane i runs Table-I
/// function i mod 10; the request streams derive from the workload seed,
/// the fleet itself from a constant (see kFleetSeed in workloads.cpp).
struct LanePlan {
  toss::FunctionRegistration registration;
  std::vector<toss::Request> warmup;  ///< drained before timing (may be empty)
  std::vector<toss::Request> timed;   ///< the timed part
};

/// For cluster_overload this includes the closed-loop calibration that sets
/// each lane's arrival rate and deadlines, so callers time it as set-up.
std::vector<LanePlan> plan_lanes(Workload workload, u64 seed);

/// Digest + correctness gate over a round's lanes: adds every lane's ledger
/// to `digest` and fills round->sim and round->violations. `timed_from[i]`
/// is the index of lane i's first timed-part outcome.
void summarize(const std::vector<LaneLedger>& lanes,
               const std::vector<size_t>& timed_from, Digest& digest,
               Round* round);

/// The arbiter ledger of one host (default-constructed on the legacy path).
void digest_arbiter(const toss::ArbiterReport& arbiter, Digest& digest);

double peak_rss_mb();

}  // namespace perfbench
