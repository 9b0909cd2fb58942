// Lock-free-ish observability for the platform engine.
//
// Hot path (every invocation): relaxed atomic increments into per-function
// counters and fixed-bucket log2 latency histograms — no locks, no
// allocation, safe to call from any worker thread. Cold path (registration,
// snapshot): mutex-protected. A MetricsSnapshot is a plain value the benches
// serialize to JSON so speedups and tail latencies are observable rather
// than asserted.
#pragma once

#include <array>
#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/toss.hpp"
#include "platform/qos.hpp"
#include "util/optimistic.hpp"

namespace toss {

/// Latency histogram over log2(ns) buckets: bucket i counts samples in
/// [2^i, 2^(i+1)) ns; 48 buckets span 1 ns .. ~3.2 days.
class LatencyHistogram {
 public:
  static constexpr int kBucketCount = 48;

  void record(Nanos t);

  struct Snapshot {
    u64 count = 0;
    double sum = 0;
    double min = 0;  ///< 0 when empty
    double max = 0;
    std::array<u64, kBucketCount> buckets{};

    double mean() const { return count ? sum / static_cast<double>(count) : 0; }
    /// Bucket-resolution percentile (upper bound of the containing bucket,
    /// clamped to the observed max). p in [0, 100].
    double percentile(double p) const;
  };

  Snapshot snapshot() const;

 private:
  std::array<std::atomic<u64>, kBucketCount> buckets_{};
  std::atomic<u64> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{0.0};  // valid only when count_ > 0
  std::atomic<double> max_{0.0};
};

/// Per-function hot-path counters. One instance per registered function;
/// pointers stay stable for the registry's lifetime.
struct FunctionSeries {
  explicit FunctionSeries(std::string name) : function(std::move(name)) {}

  std::string function;
  std::atomic<u64> invocations{0};
  std::atomic<u64> cold_boots{0};
  /// Indexed by TossPhase (kInitial/kProfiling/kTiered). Baseline policies
  /// count everything as kInitial (cold) or kTiered (steady state).
  std::array<std::atomic<u64>, 3> phase_invocations{};
  std::atomic<double> total_charge{0.0};
  // Recovery ladder counters (all zero unless faults were injected).
  std::atomic<u64> recovered_faults{0};
  std::atomic<u64> recovery_retries{0};
  std::atomic<u64> fallbacks_single_tier{0};
  std::atomic<u64> fallbacks_cold_boot{0};
  std::atomic<u64> quarantines{0};
  std::atomic<u64> regenerations{0};
  std::atomic<u64> breaker_suspended{0};
  std::atomic<u64> incomplete{0};
  // Overload-control counters (with default knobs only `admitted` and
  // `deadline_misses` move; a default-knob PlatformEngine reports them 0).
  // The engine increments these directly; like everything else here they are
  // commutative relaxed adds, so totals are thread-count independent.
  std::atomic<u64> admitted{0};
  /// Per-cause shed counters, indexed by ShedCause (platform/qos.hpp).
  /// One array instead of one ad-hoc field per cause; the JSON keys stay
  /// the historical ones via shed_cause_json_key().
  std::array<std::atomic<u64>, kShedCauseCount> shed{};
  std::atomic<u64> deadline_misses{0};
  std::atomic<u64> demotions{0};
  std::atomic<u64> promotions{0};
  std::atomic<u64> watchdog_trips{0};
  LatencyHistogram total_ns;
  LatencyHistogram setup_ns;
  LatencyHistogram exec_ns;

  void record(TossPhase phase, bool cold_boot, Nanos total, Nanos setup,
              Nanos exec, double charge, const RecoveryInfo& recovery = {});
};

struct FunctionMetrics {
  std::string function;
  u64 invocations = 0;
  u64 cold_boots = 0;
  std::array<u64, 3> phase_invocations{};
  double total_charge = 0;
  u64 recovered_faults = 0;
  u64 recovery_retries = 0;
  u64 fallbacks_single_tier = 0;
  u64 fallbacks_cold_boot = 0;
  u64 quarantines = 0;
  u64 regenerations = 0;
  u64 breaker_suspended = 0;
  u64 incomplete = 0;
  u64 admitted = 0;
  /// Per-cause shed counters, indexed by ShedCause.
  std::array<u64, kShedCauseCount> shed{};
  u64 deadline_misses = 0;
  u64 demotions = 0;
  u64 promotions = 0;
  u64 watchdog_trips = 0;
  /// QoS class / SLO annotation (schema 6); stamped by the host from its
  /// lane state when QoS classes are engaged, kNone otherwise.
  QosClass qos = QosClass::kNone;
  double slo_slowdown = 0;
  /// Per-function SLO attainment, derived from the lane's OverloadStats;
  /// all-zero when the function carries no QoS class.
  QosAttainment slo;
  LatencyHistogram::Snapshot total_ns;
  LatencyHistogram::Snapshot setup_ns;
  LatencyHistogram::Snapshot exec_ns;

  u64 shed_by(ShedCause cause) const {
    return shed[static_cast<size_t>(cause)];
  }
};

/// Fleet-wide rollup of one ladder rank at snapshot time (schema 4).
struct TierRollup {
  std::string tier;        ///< tier_name(rank)
  u64 resident_bytes = 0;  ///< bytes live lanes currently pin in this rank
  u64 capacity_bytes = 0;  ///< TierSpec::capacity_bytes of the rank
  /// resident / capacity; 0 when the capacity is unknown or unbounded.
  double occupancy = 0;
};

/// Per-host health rollup (schema 5), filled by the cluster's health
/// governance. `present` gates the "health" key in to_json(), so a bare
/// engine's snapshot is unchanged from schema 4 modulo the version bump.
struct HostHealthRollup {
  bool present = false;
  bool lost = false;         ///< host crashed (lanes failed over / abandoned)
  bool quarantined = false;  ///< health breaker open at snapshot time
  u64 brownouts = 0;         ///< brownout epochs this host absorbed
  u64 quarantines = 0;       ///< breaker open transitions
  u64 readmissions = 0;      ///< breaker half-open -> closed transitions
  u64 lanes_failed_over = 0;  ///< lanes re-placed off this host at crash
};

/// One QoS class's SLO-attainment rollup across a host's lanes (schema 6).
/// Only classes with at least one lane appear; order is the QosClass enum
/// order, so the rollup is deterministic by construction.
struct QosClassRollup {
  QosClass cls = QosClass::kNone;
  QosAttainment ledger;
};

struct MetricsSnapshot {
  /// Layout version of to_json() (the top-level "schema" key). Version 2
  /// added the per-function "overload" block (DESIGN.md §9); version 3
  /// added the top-level "host" key (present when `host` is non-empty)
  /// and the cluster rollup in ClusterReport::to_json (DESIGN.md §10);
  /// version 4 added the top-level "tiers" array (present when `tiers` is
  /// non-empty) — one resident/occupancy rollup per ladder rank, fastest
  /// first (DESIGN.md §11); version 5 added the per-function
  /// "shed_host_lost" overload counter, the top-level "health" rollup
  /// (present when the cluster's health governance filled it) and the
  /// failover/health ledgers in ClusterReport::to_json (DESIGN.md §13);
  /// version 6 added the per-function "qos" block (present when the
  /// function carries a QoS class), the top-level "qos" per-class
  /// SLO-attainment array (present when any lane is classed) and the same
  /// rollup in ClusterReport::to_json's cluster block (DESIGN.md §14).
  /// Consumers should ignore unknown keys.
  static constexpr int kJsonSchemaVersion = 6;

  /// Which simulated host produced this snapshot; empty outside the
  /// engine/cluster (e.g. a bare MetricsRegistry).
  std::string host;
  /// Per-ladder-rank rollup, index 0 = fastest; filled by the engine
  /// (a bare MetricsRegistry has no ladder to sample).
  std::vector<TierRollup> tiers;
  /// Host health rollup; filled by ClusterEngine::report() (schema 5).
  HostHealthRollup health;
  /// Per-class SLO-attainment rollup in QosClass enum order; empty unless
  /// the host has QoS-classed lanes (schema 6).
  std::vector<QosClassRollup> qos;
  std::vector<FunctionMetrics> functions;  ///< registration order

  u64 total_invocations() const;
  const FunctionMetrics* find(const std::string& name) const;
  /// Serialize for the bench harness (stable key order, valid JSON).
  std::string to_json() const;
};

class MetricsRegistry {
 public:
  /// Create (or fetch) the series for `name`. Lookups of an existing name
  /// take the latch shared (lock-free CAS, no mutex); only the first call
  /// for a new name upgrades to exclusive and allocates.
  FunctionSeries* series(const std::string& name);

  /// Consistent-enough copy of all counters (each value is read atomically;
  /// the set of functions is read under the shared latch).
  MetricsSnapshot snapshot() const;

 private:
  /// Optimistic version-stamped latch (DESIGN.md §15) guarding the series
  /// vector — the FunctionSeries counters themselves are atomics and are
  /// recorded without any latch at all.
  mutable OptimisticLatch latch_;
  std::vector<std::unique_ptr<FunctionSeries>> series_;
};

}  // namespace toss
