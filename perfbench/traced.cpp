// The traced run: per-layer numbers, always separate from the untraced
// end-to-end runs.
//
// tiered_steady / lifecycle_cold. Every lane becomes its own
// ServerlessPlatform, driven serially through ServerlessPlatform::invoke
// (span platform.invoke, bucketed by the TossFunction phase the call ran
// in). The layers below sit inside that call, and the program has no spans
// of its own yet, so after each timed call the benchmark replays the
// phase's calls into each layer's public entry point on a benchmark-owned
// *mirror* of the lane (its own SnapshotStore holding the same Step-I and
// tiered artifacts) and times each one: FunctionModel::invoke,
// PageAccessCounts::from_trace, DamonMonitor::monitor, MicroVm::boot /
// restore / execute, hash_memory, SingleTierSnapshot::materialize,
// SnapshotStore::verify_tiered, analyze_pattern and tier_snapshot. The
// replay's oracle hashes must equal the ones the platform recorded, which
// shows the mirror reaches the same state, not that it does the same work:
// the spans time this file's copy of TossFunction's call sequence
// (src/core/toss.cpp), which must be kept in step with it by hand. A
// change that makes a layer cheaper inside the program but keeps its
// results moves platform.invoke and leaves the replayed span where it was.
// probe.coverage is replayed layer time over platform.invoke time, a ratio
// of two different executions, not the share of platform.invoke the layers
// account for; probe.overhead_share is the traced pass's wall time over an
// untraced 1-worker run of the same requests, minus one.
//
// cluster_overload. ClusterEngine::run at 1 and at kWorkers workers; the
// platform.* counters come from the ClusterReport and the simulated vmm.*
// counts from the served outcomes. No layer spans are replayed there.
//
// Every pass must reproduce the untraced kWorkers digest: that is the
// determinism-across-worker-counts check, and it shows the probes do not
// perturb the ledger.
#include <array>

#include "bench.hpp"

namespace perfbench {

using namespace toss;

namespace {

enum Layer : size_t {
  kInvokeModel,
  kPageCounts,
  kDamon,
  kBoot,
  kRestore,
  kExecute,
  kOracleHash,
  kMaterialize,
  kVerify,
  kSnapshotPut,
  kAnalyze,
  kTier,
  kLayerCount,
};

constexpr std::array<const char*, kLayerCount> kLayerNames = {
    "workloads.invoke", "trace.page_counts", "damon.monitor",
    "vmm.boot",         "vmm.restore",       "vmm.execute",
    "vmm.oracle_hash",  "vmm.materialize",   "vmm.verify",
    "vmm.snapshot_put", "core.analyze",      "core.tier",
};

/// TossFunction phase buckets of the platform.invoke span; "analysis" is a
/// profiling call after which the lane was tiered (Steps III + IV ran).
enum Bucket : size_t { kInitial, kProfiling, kAnalysis, kTiered, kBucketCount };

constexpr std::array<const char*, kBucketCount> kBucketNames = {
    "initial", "profiling", "analysis", "tiered"};

/// One span: a layer call replayed for request `request`, or (layer ==
/// kLayerCount) the platform.invoke call itself. Kept in memory and reduced
/// to metrics when the run ends.
struct SpanRecord {
  u64 request = 0;
  size_t layer = 0;
  size_t bucket = 0;
  double seconds = 0;
};

class Tracer {
 public:
  /// Times one scope into a span of the current request; inert while
  /// recording is off (warm-up only rebuilds the mirror's artifacts).
  class Probe {
   public:
    Probe(Tracer& tracer, Layer layer)
        : tracer_(tracer), layer_(layer), start_(Clock::now()) {}
    ~Probe() {
      if (tracer_.recording_)
        tracer_.spans_.push_back({tracer_.request_, layer_, tracer_.bucket_,
                                  seconds_since(start_)});
    }
    Probe(const Probe&) = delete;
    Probe& operator=(const Probe&) = delete;

   private:
    Tracer& tracer_;
    Layer layer_;
    Clock::time_point start_;
  };

  void begin(u64 request, Bucket bucket, bool recording) {
    request_ = request;
    bucket_ = bucket;
    recording_ = recording;
  }
  void record_invoke(double seconds) {
    if (recording_)
      spans_.push_back({request_, kLayerCount, bucket_, seconds});
  }
  const std::vector<SpanRecord>& spans() const { return spans_; }

 private:
  std::vector<SpanRecord> spans_;
  u64 request_ = 0;
  size_t bucket_ = 0;
  bool recording_ = false;
};

/// A lane driven directly through ServerlessPlatform, plus the mirror the
/// replay runs on.
struct TracedLane {
  TracedLane(const SystemConfig& cfg, const FunctionRegistration& reg)
      : platform(cfg, PricingPlan{}, FaultPlan{}),
        name(reg.spec().name),
        model(reg.spec()),
        options(reg.toss_options()),
        mirror(cfg),
        damon(reg.toss_options().damon),
        rng(mix_seed(reg.seed(), "perfbench-mirror")) {}

  ServerlessPlatform platform;
  std::string name;
  FunctionModel model;
  TossOptions options;
  std::vector<InvocationOutcome> outcomes;
  SnapshotStore mirror;
  u64 single_id = 0;
  u64 tiered_id = 0;
  DamonMonitor damon;
  Rng rng;
  u64 damon_samples = 0;
};

struct TracedPass {
  std::string digest;
  double wall_s = 0;  ///< the timed part, replays included
  std::vector<SpanRecord> spans;
  std::vector<std::string> violations;
  u64 damon_samples = 0;
};

/// Replays the layer calls of one platform call on the lane's mirror. With
/// `full` false only the artifact-building steps run (Step I's snapshot and
/// Step IV's tiered artifact), so the mirror keeps up during warm-up.
void replay(const SystemConfig& cfg, TracedLane& lane, const Request& r,
            const InvocationOutcome& out, Bucket bucket, bool full,
            Tracer& tracer, std::vector<std::string>& violations) {
  using Probe = Tracer::Probe;
  if (!full && bucket != kInitial && bucket != kAnalysis) return;
  Invocation inv;
  {
    Probe p(tracer, kInvokeModel);
    inv = lane.model.invoke(r.input, r.seed);
  }
  lane.mirror.drop_caches();
  MicroVm vm(cfg, lane.mirror);
  ExecutionResult exec;
  const SingleTierSnapshot* authority = nullptr;
  if (bucket == kInitial) {
    {
      Probe p(tracer, kBoot);
      vm.boot(lane.model.guest_bytes(), VmState{});
    }
    {
      Probe p(tracer, kExecute);
      exec = vm.execute(inv.trace, inv.cpu_ns);
    }
    {
      Probe p(tracer, kSnapshotPut);
      vm.apply_writes(inv.trace);
      lane.single_id = vm.take_snapshot();
    }
    authority = lane.mirror.get_single_tier(lane.single_id);
  } else if (bucket == kTiered) {
    {
      Probe p(tracer, kVerify);
      lane.mirror.fetch_tiered(lane.tiered_id);
      if (!lane.mirror.verify_tiered(lane.tiered_id).ok())
        violations.push_back("mirror artifact of " + lane.name +
                             " failed verification");
    }
    const RestorePlan plan = TossPolicy(lane.mirror, lane.tiered_id)
                                 .plan_restore();
    {
      Probe p(tracer, kRestore);
      vm.restore(plan);
    }
    {
      Probe p(tracer, kExecute);
      exec = vm.execute(inv.trace, inv.cpu_ns);
    }
    authority = lane.mirror.get_single_tier(lane.single_id);
  } else {
    if (full) {
      const RestorePlan plan =
          VanillaPolicy(lane.mirror, lane.single_id).plan_restore();
      {
        Probe p(tracer, kRestore);
        vm.restore(plan);
      }
      {
        Probe p(tracer, kExecute);
        exec = vm.execute(inv.trace, inv.cpu_ns);
      }
      PageAccessCounts counts;
      {
        Probe p(tracer, kPageCounts);
        counts = PageAccessCounts::from_trace(inv.trace,
                                              lane.model.guest_pages());
      }
      {
        Probe p(tracer, kDamon);
        lane.damon_samples +=
            lane.damon.monitor(counts, exec.exec_ns, lane.rng).samples;
      }
      authority = lane.mirror.get_single_tier(lane.single_id);
    }
    if (bucket == kAnalysis) {
      const TossFunction* state = lane.platform.toss_state(lane.name);
      if (full) {
        // TossFunction::analyze_now: re-run the representative invocation,
        // then Step III on the unified pattern.
        Probe p(tracer, kAnalyze);
        const auto [input, seed] = *state->representative();
        TieringOptions topt;
        topt.bin_count = lane.options.bin_count;
        topt.slowdown_threshold = lane.options.slowdown_threshold;
        topt.slo_slowdown = lane.options.slo_slowdown;
        analyze_pattern(cfg, state->unified()->counts(),
                        lane.model.invoke(input, seed), topt);
      }
      Probe p(tracer, kTier);
      lane.tiered_id =
          tier_snapshot(lane.mirror, lane.mirror.fetch_single_tier(lane.single_id),
                        state->decision()->placement);
    }
  }
  if (!full || authority == nullptr) return;

  // The oracle exactly as the platform runs it: hash the guest, then hash a
  // fresh materialization of the authoritative Step-I snapshot.
  u64 observed = 0, expected = 0;
  {
    Probe p(tracer, kOracleHash);
    observed = hash_memory(vm.memory());
  }
  GuestMemory image(0);
  {
    Probe p(tracer, kMaterialize);
    image = authority->materialize();
  }
  {
    Probe p(tracer, kOracleHash);
    expected = hash_memory(image);
  }
  if (observed != out.recovery.memory_hash ||
      expected != out.recovery.expected_hash)
    violations.push_back("mirror of " + lane.name +
                         " diverged from the platform's oracle hashes");
}

Bucket bucket_of(const InvocationOutcome& out, TossPhase after) {
  switch (out.toss_phase) {
    case TossPhase::kInitial: return kInitial;
    case TossPhase::kTiered: return kTiered;
    default: return after == TossPhase::kTiered ? kAnalysis : kProfiling;
  }
}

TracedPass traced_pass(Workload workload, u64 seed) {
  TracedPass pass;
  const SystemConfig cfg = SystemConfig::paper_default();
  std::vector<LanePlan> plan = plan_lanes(workload, seed);
  std::vector<std::unique_ptr<TracedLane>> lanes;
  for (const LanePlan& p : plan) {
    lanes.push_back(std::make_unique<TracedLane>(cfg, p.registration));
    if (const Result<void> reg =
            lanes.back()->platform.register_function(p.registration);
        !reg.ok()) {
      pass.violations.push_back("register " + lanes.back()->name + ": " +
                                reg.message());
      return pass;
    }
  }

  Tracer tracer;
  u64 request_id = 0;
  auto serve = [&](TracedLane& lane, const Request& r, bool full) {
    const u64 id = request_id++;
    const auto start = Clock::now();
    Result<InvocationOutcome> out =
        lane.platform.invoke(lane.name, r.input, r.seed);
    const double seconds = seconds_since(start);
    if (!out.ok()) {
      pass.violations.push_back("invoke " + lane.name + ": " + out.message());
      return;
    }
    const Bucket bucket =
        bucket_of(*out, lane.platform.toss_state(lane.name)->phase());
    tracer.begin(id, bucket, full);
    tracer.record_invoke(seconds);
    replay(cfg, lane, r, *out, bucket, full, tracer, pass.violations);
    lane.outcomes.push_back(std::move(*out));
  };

  for (size_t i = 0; i < lanes.size(); ++i)
    for (const Request& r : plan[i].warmup) serve(*lanes[i], r, false);
  if (workload == Workload::kTieredSteady)
    for (const auto& lane : lanes)
      if (lane->platform.toss_state(lane->name)->phase() != TossPhase::kTiered)
        pass.violations.push_back(lane->name + " is not tiered after warm-up");

  const auto start = Clock::now();
  for (size_t i = 0; i < lanes.size(); ++i)
    for (const Request& r : plan[i].timed) serve(*lanes[i], r, true);
  pass.wall_s = seconds_since(start);

  static const std::vector<ShedEvent> kNoSheds;
  std::vector<LaneLedger> ledgers;
  std::vector<size_t> timed_from;
  for (size_t i = 0; i < lanes.size(); ++i) {
    const TracedLane& lane = *lanes[i];
    const TossFunction* state = lane.platform.toss_state(lane.name);
    LaneLedger l;
    l.name = lane.name;
    l.submitted = plan[i].warmup.size() + plan[i].timed.size();
    l.stats = lane.platform.stats(lane.name);
    l.final_phase = state->phase();
    l.fast_resident_bytes = state->fast_resident_bytes();
    l.outcomes = &lane.outcomes;
    l.shed_events = &kNoSheds;
    ledgers.push_back(l);
    timed_from.push_back(plan[i].warmup.size());
    pass.damon_samples += lane.damon_samples;
  }
  Round round;
  Digest digest;
  summarize(ledgers, timed_from, digest, &round);
  digest_arbiter(ArbiterReport{}, digest);
  pass.digest = digest.hex();
  for (std::string& v : round.violations)
    pass.violations.push_back(std::move(v));
  pass.spans = tracer.spans();
  return pass;
}

}  // namespace

TracedResult run_traced(Workload workload, u64 seed) {
  TracedResult result;
  std::vector<double> adds_s;
  PlatformCounters counters;
  const Round untraced = run_round(workload, seed, kWorkers, &adds_s, &counters);
  const Round serial = run_round(workload, seed, 1);
  TracedPass pass;
  if (workload != Workload::kClusterOverload)
    pass = traced_pass(workload, seed);
  else
    pass.digest = untraced.digest;  // no serial replay pass on the cluster

  result.digest = untraced.digest;
  result.sim = untraced.sim;
  for (const Round* r : {&untraced, &serial})
    result.violations.insert(result.violations.end(), r->violations.begin(),
                             r->violations.end());
  result.violations.insert(result.violations.end(), pass.violations.begin(),
                           pass.violations.end());
  if (serial.digest != untraced.digest)
    result.violations.push_back("1-worker digest " + serial.digest +
                                " != " + untraced.digest);
  if (pass.digest != untraced.digest)
    result.violations.push_back("traced digest " + pass.digest + " != " +
                                untraced.digest);

  std::vector<Metric>& m = result.metrics;
  // Layer spans: mean ms per call, and calls.
  std::array<double, kLayerCount> layer_s{};
  std::array<double, kLayerCount> layer_calls{};
  std::array<double, kBucketCount> bucket_s{};
  std::array<double, kBucketCount> bucket_calls{};
  double invoke_s = 0, invoke_calls = 0, layers_total_s = 0;
  for (const SpanRecord& s : pass.spans) {
    if (s.layer == kLayerCount) {
      invoke_s += s.seconds;
      invoke_calls += 1;
      bucket_s[s.bucket] += s.seconds;
      bucket_calls[s.bucket] += 1;
    } else {
      layer_s[s.layer] += s.seconds;
      layer_calls[s.layer] += 1;
      layers_total_s += s.seconds;
    }
  }
  m.push_back({"platform.invoke_ms", ratio(invoke_s * 1e3, invoke_calls), "ms"});
  for (size_t b = 0; b < kBucketCount; ++b)
    m.push_back({std::string("core.handle_ms.") + kBucketNames[b],
                 ratio(bucket_s[b] * 1e3, bucket_calls[b]), "ms"});
  for (size_t l = 0; l < kLayerCount; ++l) {
    m.push_back({std::string(kLayerNames[l]) + "_ms",
                 ratio(layer_s[l] * 1e3, layer_calls[l]), "ms"});
    m.push_back({std::string(kLayerNames[l]) + "_calls", layer_calls[l],
                 "count"});
  }
  m.push_back({"damon.samples",
               ratio(static_cast<double>(pass.damon_samples),
                   layer_calls[kDamon]),
               "count/call"});

  // Simulated counts of the timed part (identical in every pass).
  const SimSummary& sim = untraced.sim;
  const double inv = static_cast<double>(sim.completed);
  m.push_back({"vmm.mappings", ratio(sim.mappings, inv), "count/inv"});
  m.push_back({"vmm.eager_pages", ratio(sim.eager_pages, inv), "count/inv"});
  m.push_back({"vmm.minor_faults", ratio(sim.minor_faults, inv), "count/inv"});
  m.push_back({"vmm.major_faults", ratio(sim.major_faults, inv), "count/inv"});
  m.push_back({"vmm.touched_pages", ratio(sim.touched_pages, inv), "count/inv"});
  m.push_back({"mem.disk_pages", ratio(sim.disk_pages, inv), "count/inv"});
  m.push_back({"mem.slow_access_share",
               ratio(sim.slow_accesses, sim.total_accesses), "share"});

  // Platform: scheduler scaling, epochs, admission ledger.
  double add_s = 0;
  for (const double s : adds_s) add_s += s;
  m.push_back({"platform.parallel_eff",
               serial.timed_s / (kWorkers * untraced.timed_s), "share"});
  m.push_back({"platform.epochs", static_cast<double>(counters.epochs),
               "count"});
  m.push_back({"platform.ms_per_epoch",
               ratio(untraced.timed_s * 1e3, counters.epochs), "ms"});
  m.push_back({"platform.add_ms",
               ratio(add_s * 1e3, static_cast<double>(adds_s.size())), "ms"});
  m.push_back({"platform.shed.queue_full",
               static_cast<double>(counters.shed_queue_full), "count"});
  m.push_back({"platform.shed.admission_closed",
               static_cast<double>(counters.shed_admission_closed), "count"});
  m.push_back({"platform.shed.deadline",
               static_cast<double>(counters.shed_deadline), "count"});
  m.push_back({"platform.deadline_misses",
               static_cast<double>(counters.deadline_misses), "count"});
  m.push_back({"platform.queue_peak", static_cast<double>(counters.queue_peak),
               "count"});
  m.push_back({"platform.admission_closures",
               static_cast<double>(counters.admission_closures), "count"});
  m.push_back({"platform.keepalive_evictions",
               static_cast<double>(counters.keepalive_evictions), "count"});
  m.push_back({"platform.migrations", static_cast<double>(counters.migrations),
               "count"});

  // The probe's own cost and reach.
  const bool replayed = workload != Workload::kClusterOverload;
  m.push_back({"probe.overhead_share",
               replayed ? pass.wall_s / serial.timed_s - 1 : 0, "share"});
  m.push_back({"probe.coverage", ratio(layers_total_s, invoke_s), "share"});
  return result;
}

}  // namespace perfbench
