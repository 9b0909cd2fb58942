// The three benchmark workloads, their untraced rounds, the ledger digest
// and the correctness gate. Why each workload exists is recorded in
// BENCHMARK.json and perfbench/README.md.
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>

#include "bench.hpp"

namespace perfbench {

using namespace toss;

namespace {

/// Table-I x 4.
constexpr size_t kLanes = 40;

// tiered_steady: warm every lane into kTiered, then time fresh requests.
constexpr size_t kSteadyWarmup = 20;
constexpr size_t kSteadyTimed = 40;
// lifecycle_cold: fresh lanes walk Steps I -> IV inside the timed part
// (profiling cap 16, so every lane reaches Step IV before its 24th request).
constexpr size_t kColdRequests = 24;
// cluster_overload: open-loop arrivals past each lane's service rate.
constexpr size_t kClusterHosts = 4;
constexpr size_t kClusterRequests = 80;
constexpr size_t kClusterQueue = 3;
constexpr int kClusterChunk = 4;
constexpr double kLoadMultiple = 1.5;
constexpr double kDeadlineMultiple = 6.0;
constexpr size_t kCalibrationRequests = 16;

/// Shortest set-up sample worth one median. lifecycle_cold's set-up
/// (planning and 40 adds) takes about 0.3 ms, where scheduler noise alone
/// moved a single sample by a third, so its round repeats the set-up until
/// the repeats add up to this and reports their median. The other
/// workloads' set-ups take seconds and run once.
constexpr double kMinSetupSample_s = 0.2;

/// The fleet is part of the workload's definition: lane registration seeds
/// (which drive DAMON sampling noise, hence Step-III decisions and cluster
/// placement) and the cluster calibration derive from this constant, and
/// --seed draws only the traffic (request seeds and arrival times). A seed
/// thus changes what the fleet is asked to do, not which fleet it is.
constexpr u64 kFleetSeed = 0x7055;

TossOptions toss_options(u64 stable, u64 cap) {
  TossOptions opt;
  opt.stable_invocations = stable;
  opt.max_profiling_invocations = cap;
  return opt;
}

const std::vector<FunctionSpec>& table1() {
  static const std::vector<FunctionSpec> specs = workloads::all_functions();
  return specs;
}

FunctionRegistration lane_registration(size_t lane, const TossOptions& opt,
                                       QosClass cls = QosClass::kNone) {
  FunctionSpec spec = table1()[lane % table1().size()];
  spec.name += "#" + std::to_string(lane);
  FunctionRegistration reg(std::move(spec));
  reg.policy(PolicyKind::kToss)
      .toss(opt)
      .seed(mix_seed(kFleetSeed, "lane" + std::to_string(lane)));
  if (cls != QosClass::kNone) reg.qos(cls);
  return reg;
}

std::vector<Request> stream(size_t n, u64 seed, const char* tag, size_t lane) {
  return RequestGenerator::round_robin(
      n, mix_seed(seed, std::string(tag) + std::to_string(lane)));
}

/// Closed-loop mean service time (restore setup + execution) of each
/// Table-I function over a fresh lifecycle, indexed like table1().
std::vector<Nanos> calibrate_service() {
  EngineOptions opts;
  opts.threads = kWorkers;
  PlatformEngine engine(SystemConfig::paper_default(), PricingPlan{}, opts);
  const TossOptions opt = toss_options(5, 16);
  for (size_t f = 0; f < table1().size(); ++f)
    engine
        .add(lane_registration(f, opt),
             stream(kCalibrationRequests, kFleetSeed, "calibrate", f))
        .value();
  const EngineReport report = engine.run(kWorkers).value();
  std::vector<Nanos> service;
  for (const FunctionReport& f : report.functions) {
    double sum = 0;
    for (const InvocationOutcome& o : f.outcomes) sum += o.result.total_ns();
    service.push_back(sum / static_cast<double>(f.outcomes.size()));
  }
  return service;
}

/// Per-host arbiter budget: the per-host share of every lane's guest image.
/// Lanes pin their whole image while profiling, so early in the run the
/// budget binds and admission closes; tiered lanes fit comfortably.
u64 cluster_budget() {
  u64 total = 0;
  for (size_t i = 0; i < kLanes; ++i)
    total += table1()[i % table1().size()].guest_bytes();
  return total / kClusterHosts;
}

ClusterOptions cluster_options() {
  ClusterOptions opts;
  opts.hosts = kClusterHosts;
  opts.host_options.chunk = kClusterChunk;
  opts.host_options.max_lane_queue = kClusterQueue;
  opts.host_options.enforce_deadlines = true;
  opts.host_options.arbiter.enabled = true;
  opts.host_options.arbiter.fast_budget_bytes = cluster_budget();
  return opts;
}

double percentile(const std::vector<double>& xs, double p) {
  return xs.empty() ? 0.0 : percentile_of(xs, p);
}

Round run_engine_round(Workload workload, u64 seed, int threads,
                       std::vector<double>* adds_s) {
  Round round;
  std::vector<size_t> timed_from;
  RequestBatch batch;
  // Set-up: plan the lanes, add them to a fresh engine and drain the
  // warm-up. Returns null when a lane cannot be added.
  auto set_up = [&](std::vector<double>* adds) {
    auto engine = std::make_unique<PlatformEngine>(
        SystemConfig::paper_default(), PricingPlan{}, EngineOptions{});
    timed_from.clear();
    batch.clear();
    for (LanePlan& lane : plan_lanes(workload, seed)) {
      const std::string name = lane.registration.spec().name;
      timed_from.push_back(lane.warmup.size());
      const auto t = Clock::now();
      const Result<void> added =
          engine->add(lane.registration, std::move(lane.warmup));
      if (adds) adds->push_back(seconds_since(t));
      if (!added.ok()) {
        round.violations.push_back("add " + name + ": " + added.message());
        return std::unique_ptr<PlatformEngine>();
      }
      batch.push_back({name, std::move(lane.timed)});
    }
    if (timed_from.front() > 0) {
      const Result<EngineReport> warm = engine->drain({}, threads);
      if (!warm.ok()) {
        round.violations.push_back("warm-up drain: " + warm.message());
        return std::unique_ptr<PlatformEngine>();
      }
      if (workload == Workload::kTieredSteady)
        for (const LaneBatch& lane : batch)
          if (engine->toss_state(lane.function)->phase() != TossPhase::kTiered)
            round.violations.push_back(lane.function +
                                       " is not tiered after warm-up");
    }
    return engine;
  };

  // A set-up too short to rise above scheduler noise is repeated until the
  // repeats add up to kMinSetupSample_s; the last engine runs the timed part.
  std::unique_ptr<PlatformEngine> engine;
  std::vector<double> setups;
  double setup_total = 0;
  do {
    engine.reset();  // a repeat's engine is destroyed outside the timing
    const auto start = Clock::now();
    engine = set_up(setups.empty() ? adds_s : nullptr);
    setups.push_back(seconds_since(start));
    setup_total += setups.back();
  } while (engine && setup_total < kMinSetupSample_s);
  if (!engine) return round;
  round.setup_s = percentile(setups, 50);

  const auto t = Clock::now();
  const Result<EngineReport> drained = engine->drain(batch, threads);
  round.timed_s = seconds_since(t);
  if (!drained.ok()) {
    round.violations.push_back("timed drain: " + drained.message());
    return round;
  }
  const EngineReport& report = *drained;
  if (report.serialization_violations != 0)
    round.violations.push_back("serialization violations: " +
                               std::to_string(report.serialization_violations));

  std::vector<LaneLedger> lanes;
  for (size_t i = 0; i < report.functions.size(); ++i) {
    const FunctionReport& f = report.functions[i];
    LaneLedger lane;
    lane.name = f.name;
    lane.submitted = timed_from[i] + batch[i].requests.size();
    lane.stats = f.stats;
    lane.final_phase = f.final_phase;
    lane.fast_resident_bytes =
        engine->toss_state(f.name)->fast_resident_bytes();
    lane.outcomes = &f.outcomes;
    lane.overload = f.overload;
    lane.shed_events = &f.shed_events;
    lanes.push_back(lane);
  }
  Digest digest;
  summarize(lanes, timed_from, digest, &round);
  digest_arbiter(report.arbiter, digest);
  round.digest = digest.hex();
  round.throughput =
      ratio(static_cast<double>(round.sim.completed), round.timed_s);
  return round;
}

Round run_cluster_round(u64 seed, int threads, std::vector<double>* adds_s,
                        PlatformCounters* counters) {
  Round round;
  const auto start = Clock::now();
  std::vector<LanePlan> plan = plan_lanes(Workload::kClusterOverload, seed);
  ClusterEngine cluster(cluster_options());
  std::vector<std::string> names;
  std::vector<u64> submitted;
  std::vector<QosClass> classes;
  for (LanePlan& lane : plan) {
    names.push_back(lane.registration.spec().name);
    submitted.push_back(lane.timed.size());
    classes.push_back(lane.registration.qos_spec().cls);
    const auto t = Clock::now();
    const Result<void> added =
        cluster.add(lane.registration, std::move(lane.timed));
    if (adds_s) adds_s->push_back(seconds_since(t));
    if (!added.ok()) {
      round.violations.push_back("add " + names.back() + ": " +
                                 added.message());
      return round;
    }
  }
  round.setup_s = seconds_since(start);

  const auto t = Clock::now();
  const Result<ClusterReport> ran = cluster.run(threads);
  round.timed_s = seconds_since(t);
  if (!ran.ok()) {
    round.violations.push_back("cluster run: " + ran.message());
    return round;
  }
  const ClusterReport& report = *ran;

  std::vector<LaneLedger> lanes;
  for (size_t i = 0; i < names.size(); ++i) {
    const FunctionReport* f = report.find(names[i]);
    const size_t host = cluster.host_of(names[i]);
    if (f == nullptr || host == ClusterEngine::npos) {
      round.violations.push_back(names[i] + " is missing from the report");
      continue;
    }
    LaneLedger lane;
    lane.name = names[i];
    lane.qos = classes[i];
    lane.submitted = submitted[i];
    lane.stats = f->stats;
    lane.final_phase = f->final_phase;
    lane.fast_resident_bytes =
        cluster.host_at(host).toss_state(names[i])->fast_resident_bytes();
    lane.outcomes = &f->outcomes;
    lane.overload = f->overload;
    lane.shed_events = &f->shed_events;
    lanes.push_back(lane);
  }
  Digest digest;
  summarize(lanes, std::vector<size_t>(lanes.size(), 0), digest, &round);
  round.throughput =
      ratio(static_cast<double>(round.sim.completed), round.timed_s);

  PlatformCounters c;
  c.epochs = report.epochs;
  digest.add(report.epochs);
  digest.add(report.hosts_lost);
  for (const ClusterHostReport& h : report.hosts) {
    digest.add(h.host);
    digest_arbiter(h.report.arbiter, digest);
    c.admission_closures += h.report.arbiter.admission_closures;
    c.keepalive_evictions += h.report.arbiter.keepalive_evictions;
    if (h.report.serialization_violations != 0)
      round.violations.push_back("serialization violations on " + h.host);
  }
  for (const MigrationEvent& m : report.migrations) {
    digest.add(m.epoch);
    digest.add(m.function);
    digest.add(m.from_host);
    digest.add(m.to_host);
    digest.add(m.moved_bytes);
    digest.add(m.transfer_ns);
    digest.add(static_cast<u64>(m.outcome));
  }
  for (const FailoverEvent& e : report.failovers) {
    digest.add(e.function);
    digest.add(e.to_host);
    digest.add(e.shed);
  }
  for (const HostHealthEvent& e : report.health_events) {
    digest.add(e.host);
    digest.add(static_cast<u64>(e.action));
  }
  round.digest = digest.hex();

  for (const LaneLedger& lane : lanes) {
    c.shed_queue_full += lane.overload.shed_by(ShedCause::kQueueFull);
    c.shed_admission_closed +=
        lane.overload.shed_by(ShedCause::kAdmissionClosed);
    c.shed_deadline += lane.overload.shed_by(ShedCause::kDeadlineExpired);
    c.deadline_misses += lane.overload.deadline_misses;
    c.queue_peak = std::max<u64>(c.queue_peak, lane.overload.queue_peak);
  }
  c.migrations = report.migrations.size();
  if (counters) *counters = c;
  return round;
}

}  // namespace

bool parse_workload(std::string_view name, Workload* out) {
  if (name == "tiered_steady") *out = Workload::kTieredSteady;
  else if (name == "lifecycle_cold") *out = Workload::kLifecycleCold;
  else if (name == "cluster_overload") *out = Workload::kClusterOverload;
  else return false;
  return true;
}

void Digest::add(u64 v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xff;
    h_ *= 1099511628211ULL;
  }
}

void Digest::add(double v) {
  u64 bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  add(bits);
}

void Digest::add(std::string_view s) {
  add(static_cast<u64>(s.size()));
  for (const char c : s) {
    h_ ^= static_cast<unsigned char>(c);
    h_ *= 1099511628211ULL;
  }
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, h_);
  return buf;
}

std::vector<LanePlan> plan_lanes(Workload workload, u64 seed) {
  std::vector<LanePlan> plan;
  switch (workload) {
    case Workload::kTieredSteady:
      for (size_t i = 0; i < kLanes; ++i)
        plan.push_back({lane_registration(i, toss_options(5, 16)),
                        stream(kSteadyWarmup, seed, "warmup", i),
                        stream(kSteadyTimed, seed, "timed", i)});
      break;
    case Workload::kLifecycleCold:
      for (size_t i = 0; i < kLanes; ++i)
        plan.push_back({lane_registration(i, toss_options(5, 16)),
                        {},
                        stream(kColdRequests, seed, "timed", i)});
      break;
    case Workload::kClusterOverload: {
      const std::vector<Nanos> service = calibrate_service();
      for (size_t i = 0; i < kLanes; ++i) {
        const Nanos mean = service[i % service.size()];
        const QosClass cls = i % 2 == 0 ? QosClass::kGold : QosClass::kBronze;
        plan.push_back(
            {lane_registration(i, toss_options(5, 16), cls),
             {},
             RequestGenerator::open_loop(
                 stream(kClusterRequests, seed, "timed", i),
                 mean / kLoadMultiple, kDeadlineMultiple * mean,
                 mix_seed(seed, "arrivals" + std::to_string(i)))});
      }
      break;
    }
  }
  return plan;
}

Round run_round(Workload workload, u64 seed, int threads,
                std::vector<double>* adds_s, PlatformCounters* counters) {
  if (workload == Workload::kClusterOverload)
    return run_cluster_round(seed, threads, adds_s, counters);
  if (counters) *counters = PlatformCounters{};
  return run_engine_round(workload, seed, threads, adds_s);
}

void digest_arbiter(const ArbiterReport& arbiter, Digest& digest) {
  for (const ArbiterEvent& e : arbiter.events) {
    digest.add(e.epoch);
    digest.add(e.function);
    digest.add(static_cast<u64>(e.action));
    digest.add(static_cast<u64>(e.rung));
    digest.add(e.resident_bytes);
  }
  digest.add(arbiter.demotions);
  digest.add(arbiter.promotions);
  digest.add(arbiter.keepalive_evictions);
  digest.add(arbiter.admission_closures);
  digest.add(arbiter.peak_resident_fast_bytes);
  digest.add(arbiter.final_resident_fast_bytes);
}

void summarize(const std::vector<LaneLedger>& lanes,
               const std::vector<size_t>& timed_from, Digest& digest,
               Round* round) {
  SimSummary& sim = round->sim;
  auto stats = [&digest](const OnlineStats& s) {
    digest.add(s.count());
    digest.add(s.sum());
    digest.add(s.min());
    digest.add(s.max());
    digest.add(s.variance());
  };
  for (size_t i = 0; i < lanes.size(); ++i) {
    const LaneLedger& lane = lanes[i];
    const FunctionStats& st = lane.stats;
    const OverloadStats& ov = lane.overload;
    digest.add(lane.name);
    digest.add(st.invocations);
    stats(st.total_ns);
    stats(st.setup_ns);
    stats(st.exec_ns);
    digest.add(st.total_charge);
    for (const u64 v : {st.recovered_faults, st.recovery_retries, st.fallbacks,
                        st.quarantines, st.regenerations, st.incomplete})
      digest.add(v);
    digest.add(static_cast<u64>(lane.final_phase));
    digest.add(lane.fast_resident_bytes);
    for (const u64 v : {ov.offered, ov.admitted, ov.completed,
                        ov.deadline_misses, ov.demotions, ov.promotions,
                        ov.watchdog_trips, static_cast<u64>(ov.queue_peak)})
      digest.add(v);
    for (const u64 v : ov.shed) digest.add(v);
    for (const ShedEvent& e : *lane.shed_events) {
      digest.add(static_cast<u64>(e.request_index));
      digest.add(static_cast<u64>(e.cause));
      digest.add(e.sim_ns);
    }

    // Correctness gate: the page-version oracle on every invocation, and
    // exactly-once accounting of every request handed to the lane.
    const std::vector<InvocationOutcome>& outcomes = *lane.outcomes;
    for (size_t k = 0; k < outcomes.size(); ++k) {
      const InvocationOutcome& o = outcomes[k];
      digest.add(static_cast<u64>(o.toss_phase));
      digest.add(o.result.total_ns());
      digest.add(o.charge);
      digest.add(o.recovery.memory_hash);
      if (!o.recovery.memory_ok())
        round->violations.push_back("oracle mismatch: " + lane.name +
                                    " invocation " + std::to_string(k));
    }
    const bool overload_path = ov.offered > 0;
    const u64 served = overload_path ? ov.completed : st.invocations;
    if (lane.submitted != served + ov.total_shed() ||
        (overload_path && ov.offered != lane.submitted) ||
        outcomes.size() != st.invocations)
      round->violations.push_back(
          "offered != completed + shed on " + lane.name + " (" +
          std::to_string(lane.submitted) + " offered, " +
          std::to_string(served) + " completed, " +
          std::to_string(ov.total_shed()) + " shed)");

    // The timed part's simulated figures.
    const u64 timed_offered = lane.submitted - timed_from[i];
    u64 completed = 0;
    for (size_t k = timed_from[i]; k < outcomes.size(); ++k) {
      const InvocationOutcome& o = outcomes[k];
      if (!o.recovery.completed) {
        ++sim.incomplete;
        continue;
      }
      ++completed;
      sim.latency_ms.push_back(to_ms(o.result.total_ns()));
      sim.setup_ms += to_ms(o.result.setup.setup_ns);
      sim.charge += o.charge;
      const ExecutionResult& ex = o.result.exec;
      sim.mappings += o.result.setup.mappings;
      sim.eager_pages += o.result.setup.eager_pages;
      sim.minor_faults += ex.minor_faults;
      sim.major_faults += ex.major_faults;
      sim.touched_pages += ex.touched_pages;
      sim.disk_pages += ex.disk_pages;
      sim.slow_accesses += ex.slow_accesses;
      sim.total_accesses += ex.total_accesses;
    }
    const u64 late = std::min(completed, ov.deadline_misses);
    sim.offered += timed_offered;
    sim.completed += completed;
    sim.shed += ov.total_shed();
    sim.slo_met += completed - late;
    if (lane.qos == QosClass::kGold) {
      sim.gold_offered += timed_offered;
      sim.gold_slo_met += completed - late;
    }
    sim.dram_mb += static_cast<double>(lane.fast_resident_bytes) / kMiB;
  }
}

std::vector<Metric> end_to_end_metrics(const std::vector<Round>& rounds,
                                       double rss_mb) {
  std::vector<double> throughput, setup;
  for (const Round& r : rounds) {
    throughput.push_back(r.throughput);
    setup.push_back(r.setup_s);
  }
  // Every round of a run repeats the same seed, so the simulated figures
  // are identical across rounds (main.cpp checks the digests agree).
  const SimSummary& sim = rounds.front().sim;
  const double offered = static_cast<double>(sim.offered);
  return {
      {"throughput_inv_s", percentile(throughput, 50), "1/s"},
      {"setup_s", percentile(setup, 50), "s"},
      {"peak_rss_mb", rss_mb, "MB"},
      {"sim_latency_ms_p50", percentile(sim.latency_ms, 50), "ms"},
      {"sim_latency_ms_p99", percentile(sim.latency_ms, 99), "ms"},
      // A mean, not a median: restore setup carries no jitter, so on
      // lifecycle_cold the median is one function's constant for every seed.
      {"sim_setup_ms_mean",
       ratio(sim.setup_ms, static_cast<double>(sim.completed)), "ms"},
      {"dram_mb", sim.dram_mb, "MB"},
      {"cost_per_kinv",
       ratio(sim.charge * 1e3, static_cast<double>(sim.completed)), "usd"},
      {"goodput_share", ratio(static_cast<double>(sim.slo_met), offered),
       "share"},
      {"completed_share", ratio(static_cast<double>(sim.completed), offered),
       "share"},
      // QosAttainment's convention: 1 when no gold work was offered.
      {"gold_attainment",
       sim.gold_offered == 0
           ? 1.0
           : ratio(static_cast<double>(sim.gold_slo_met),
                   static_cast<double>(sim.gold_offered)),
       "share"},
  };
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace perfbench
