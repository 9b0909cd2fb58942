// PlatformEngine: the concurrent multi-function engine.
//
// The single-host ServerlessPlatform drives one function at a time on the
// calling thread. The engine scales that out: every registered function
// becomes a *lane* — an isolated single-function host (own SnapshotStore,
// own page cache, own policy state machine) plus its request stream — and
// an epoch scheduler drains all lanes on a fork-join LaneExecutor.
//
// Since the Host extraction (platform/host.hpp, platform-internal) the
// engine is a thin façade over one Host. All the guarantees live there:
//   - Per-function serialization. A lane is owned by at most one
//     participant at a time, so a TossFunction state machine is never
//     re-entered concurrently; violations are counted and reported
//     (always 0).
//   - Determinism. Lanes share no mutable state — snapshot file ids, the
//     host page cache and RNG streams are all lane-local — so per-function
//     results are bit-for-bit identical for any thread count, including
//     the serial reference path (threads = 1). Only wall-clock time
//     varies.
//   - Observability. Each lane's own ledgers (FunctionStats, recorded once
//     per invocation, and OverloadStats) are the only record; the report's
//     MetricsSnapshot (per-function/per-phase counters + latency
//     histograms) is computed from them for the benches to serialize.
//
// Scheduling (DESIGN.md §9) is one epoch-barrier scheduler: each epoch
// serves up to `chunk` requests of every active lane in parallel (lanes
// stay isolated), then a serial barrier enforces the global queue bound
// and ticks the arbiter in lane registration order. Small chunks
// interleave lanes aggressively (fairness / tail latency). Requests flow
// through a per-lane simulated-time queue — arrivals are admitted when the
// lane's simulated clock reaches Request::arrival_ns. With default knobs
// nothing is bounded or shed, and the report carries no overload ledger:
// it equals what a serial ServerlessPlatform::invoke loop records. The
// overload knobs (bounded queues, deadlines, watchdog, the fast-tier
// arbiter) make bounded queues shed deterministically under the configured
// DropPolicy and shed work whose deadline already passed before it wastes a
// restore. Every shed is typed (ErrorCode::kOverloaded) and ledgered; the
// ledgers are bit-identical for any thread count.
//
// Two drain models:
//   - run(): the original single-shot drain. A second run() (or an add()
//     after it) fails with kEngineBusy. Source-compatible with every
//     pre-Host client.
//   - drain(batch): reusable. Appends the batch to retained lanes (each
//     entry validated against its lane's existing arrival tail), serves
//     everything pending, and returns a *cumulative* report. Lane state —
//     simulated clocks, arbiter rungs, keep-alive pool, all ledgers —
//     persists between drains, and because lane-local decisions depend
//     only on the simulated clock, N successive drains are bit-identical
//     to one run() over the concatenated streams (for lane-local overload
//     knobs; the cross-lane global bound and arbiter ladder see epoch
//     boundaries, which batching shifts). OverloadStats::queue_peak, when
//     published, sees the batch sizes.
#pragma once

#include <string>
#include <vector>

#include "platform/host.hpp"

namespace toss {

class PlatformEngine {
 public:
  explicit PlatformEngine(SystemConfig cfg = SystemConfig::paper_default(),
                          PricingPlan pricing = {},
                          EngineOptions options = {});
  ~PlatformEngine();

  PlatformEngine(const PlatformEngine&) = delete;
  PlatformEngine& operator=(const PlatformEngine&) = delete;

  /// Register a function and bind its request stream. Validation mirrors
  /// ServerlessPlatform::register_function, plus every request input must
  /// be in [0, kNumInputs). Rejected after run() has started (kEngineBusy).
  Result<void> add(const FunctionRegistration& registration,
                   std::vector<Request> requests);

  size_t function_count() const { return host_.function_count(); }

  /// Drain every lane's request stream with options().threads workers.
  /// Single-shot: a second call fails with kEngineBusy.
  Result<EngineReport> run();
  /// Same, overriding the thread count (1 = serial reference path).
  Result<EngineReport> run(int threads);

  /// Reusable drain: append `batch` to the retained lanes, serve
  /// everything pending, return the cumulative report. Callable any number
  /// of times; incompatible with run() (either model, not both).
  Result<EngineReport> drain(const RequestBatch& batch = {});
  Result<EngineReport> drain(const RequestBatch& batch, int threads);

  /// Live metrics (also embedded in the final report). Like the report,
  /// they carry no overload counters on a default-knob engine.
  MetricsSnapshot metrics() const;

  /// Lane state inspection (nullptr for unknown / non-TOSS lanes).
  const TossFunction* toss_state(const std::string& name) const {
    return host_.toss_state(name);
  }
  /// The lane's isolated single-function host (nullptr for unknown names);
  /// exposes its snapshot store, fault injector and circuit breaker for
  /// chaos-suite introspection.
  const ServerlessPlatform* lane_host(const std::string& name) const {
    return host_.lane_host(name);
  }

  const EngineOptions& options() const { return host_.options(); }

 private:
  Host host_;
  bool ran_ = false;      ///< run() happened (single-shot model engaged)
  bool drained_ = false;  ///< drain() happened (reusable model engaged)
};

}  // namespace toss
