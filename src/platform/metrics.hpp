// Per-function metrics snapshot for the platform engine and the cluster.
//
// There is no separate metrics ledger: a MetricsSnapshot is computed when
// it is read, from each live lane's own FunctionStats (what
// ServerlessPlatform::invoke records per invocation), OverloadStats and
// QosSpec (platform/host.hpp). It is a plain value the benches serialize
// to JSON so speedups and tail latencies are observable rather than
// asserted.
#pragma once

#include <array>
#include <string>
#include <vector>

#include "platform/qos.hpp"
#include "util/stats.hpp"

namespace toss {

/// Latency histogram over log2(ns) buckets: bucket i counts samples in
/// [2^i, 2^(i+1)) ns; 48 buckets span 1 ns .. ~3.2 days. A plain value:
/// FunctionStats keeps the bucket counts per time series, and the count,
/// sum, min and max come from the series' OnlineStats.
struct LatencyHistogram {
  static constexpr int kBucketCount = 48;
  using Buckets = std::array<u64, kBucketCount>;

  /// The bucket a sample of `t` ns falls in.
  static size_t bucket_of(Nanos t);

  LatencyHistogram() = default;
  LatencyHistogram(const OnlineStats& series, const Buckets& counts)
      : count(series.count()),
        sum(series.sum()),
        min(series.min()),
        max(series.max()),
        buckets(counts) {}

  u64 count = 0;
  double sum = 0;
  double min = 0;  ///< 0 when empty
  double max = 0;
  Buckets buckets{};

  double mean() const { return count ? sum / static_cast<double>(count) : 0; }
  /// Bucket-resolution percentile (upper bound of the containing bucket,
  /// clamped to the observed max). p in [0, 100].
  double percentile(double p) const;
};

/// One live lane's counters: the invocation ledger comes from its
/// FunctionStats, the overload counters from its OverloadStats (a
/// default-knob PlatformEngine reports `admitted` and `deadline_misses` as
/// 0), the SLO annotation from its QosSpec.
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
  LatencyHistogram total_ns;
  LatencyHistogram setup_ns;
  LatencyHistogram exec_ns;

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

  /// Which simulated host produced this snapshot.
  std::string host;
  /// Per-ladder-rank rollup, index 0 = fastest.
  std::vector<TierRollup> tiers;
  /// Host health rollup; filled by ClusterEngine::report() (schema 5).
  HostHealthRollup health;
  /// Per-class SLO-attainment rollup in QosClass enum order; empty unless
  /// the host has QoS-classed lanes (schema 6).
  std::vector<QosClassRollup> qos;
  /// The host's live lanes in slot order: registration, then adoption.
  std::vector<FunctionMetrics> functions;

  u64 total_invocations() const;
  const FunctionMetrics* find(const std::string& name) const;
  /// Serialize for the bench harness (stable key order, valid JSON).
  std::string to_json() const;
};

}  // namespace toss
