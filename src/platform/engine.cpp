#include "platform/engine.hpp"

#include <utility>

namespace toss {

namespace {

// An engine with no overload knob set and no QoS class is a parallel
// ServerlessPlatform::invoke loop: it admits every request and sheds
// nothing. Its report then carries exactly what that serial loop records —
// FunctionStats and outcomes, no overload ledger — so it compares
// bit-for-bit with a serial reference replay.
bool publishes_overload_ledger(const Host& host) {
  const EngineOptions& o = host.options();
  return o.max_lane_queue > 0 || o.max_global_queue > 0 ||
         o.enforce_deadlines || o.watchdog_chunk_budget_ns > 0 ||
         o.arbiter.enabled || host.qos_engaged();
}

void drop_overload_ledger(MetricsSnapshot& snap) {
  for (FunctionMetrics& m : snap.functions) {
    m.admitted = 0;
    m.deadline_misses = 0;
  }
}

Result<EngineReport> published(const Host& host, Result<EngineReport> drained) {
  if (!drained.ok() || publishes_overload_ledger(host)) return drained;
  EngineReport report = std::move(drained).value();
  for (FunctionReport& f : report.functions) f.overload = OverloadStats{};
  drop_overload_ledger(report.metrics);
  return report;
}

}  // namespace

PlatformEngine::PlatformEngine(SystemConfig cfg, PricingPlan pricing,
                               EngineOptions options)
    : host_("host0", std::move(cfg), pricing, options) {}

PlatformEngine::~PlatformEngine() = default;

Result<void> PlatformEngine::add(const FunctionRegistration& registration,
                                 std::vector<Request> requests) {
  if (ran_)
    return {ErrorCode::kEngineBusy,
            "engine already ran; build a new engine for another fleet"};
  return host_.add(registration, std::move(requests));
}

Result<EngineReport> PlatformEngine::run() { return run(options().threads); }

Result<EngineReport> PlatformEngine::run(int threads) {
  if (ran_)
    return {ErrorCode::kEngineBusy,
            "engine already ran; build a new engine for another fleet"};
  if (drained_)
    return {ErrorCode::kEngineBusy,
            "engine is in reusable drain() mode; keep calling drain()"};
  ran_ = true;
  return published(host_, host_.drain(threads));
}

Result<EngineReport> PlatformEngine::drain(const RequestBatch& batch) {
  return drain(batch, options().threads);
}

Result<EngineReport> PlatformEngine::drain(const RequestBatch& batch,
                                           int threads) {
  if (ran_)
    return {ErrorCode::kEngineBusy,
            "engine already ran; build a new engine for another fleet"};
  drained_ = true;
  for (const LaneBatch& b : batch)
    if (Result<void> q = host_.enqueue(b.function, b.requests); !q.ok())
      return {q.code(), q.message()};
  return published(host_, host_.drain(threads));
}

MetricsSnapshot PlatformEngine::metrics() const {
  MetricsSnapshot snap = host_.metrics();
  if (!publishes_overload_ledger(host_)) drop_overload_ledger(snap);
  return snap;
}

}  // namespace toss
