// toss_cli: command-line driver for the simulator.
//
//   toss_cli run <function> [--policy toss|reap|faasnap|vanilla]
//                [--requests N] [--inputs fixed:K|uniform|roundrobin]
//                [--stable N] [--threshold PCT] [--seed S]
//   toss_cli decide <function> [--threshold PCT] [--ratio R]
//   toss_cli list
//
// `run` drives a request stream through the platform and reports latency,
// phase transitions and billing. `decide` runs only the analysis pipeline
// on an idealized unified pattern and prints the bin table. `list` prints
// the registry.
#include <cstdio>
#include <cstdlib>
#include <algorithm>
#include <cstring>
#include <optional>
#include <string>

#include "toss.hpp"

using namespace toss;

namespace {

struct Args {
  std::string command;
  std::string function;
  std::string policy = "toss";
  std::string inputs = "roundrobin";
  size_t requests = 200;
  u64 stable = 10;
  std::optional<double> threshold;
  double ratio = 2.5;
  u64 seed = 42;
};

int usage() {
  std::puts(
      "usage:\n"
      "  toss_cli list\n"
      "  toss_cli run <function> [--policy toss|reap|faasnap|vanilla]\n"
      "           [--requests N] [--inputs fixed:K|uniform|roundrobin]\n"
      "           [--stable N] [--threshold PCT] [--seed S]\n"
      "  toss_cli decide <function> [--threshold PCT] [--ratio R]");
  return 2;
}

std::optional<Args> parse(int argc, char** argv) {
  if (argc < 2) return std::nullopt;
  Args args;
  args.command = argv[1];
  int i = 2;
  if (args.command == "run" || args.command == "decide") {
    if (i >= argc) return std::nullopt;
    args.function = argv[i++];
  }
  for (; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (flag == "--policy") {
      if (const char* v = value()) args.policy = v; else return std::nullopt;
    } else if (flag == "--requests") {
      if (const char* v = value()) args.requests = std::strtoull(v, nullptr, 10);
      else return std::nullopt;
    } else if (flag == "--inputs") {
      if (const char* v = value()) args.inputs = v; else return std::nullopt;
    } else if (flag == "--stable") {
      if (const char* v = value()) args.stable = std::strtoull(v, nullptr, 10);
      else return std::nullopt;
    } else if (flag == "--threshold") {
      if (const char* v = value()) args.threshold = std::atof(v) / 100.0;
      else return std::nullopt;
    } else if (flag == "--ratio") {
      if (const char* v = value()) args.ratio = std::atof(v);
      else return std::nullopt;
    } else if (flag == "--seed") {
      if (const char* v = value()) args.seed = std::strtoull(v, nullptr, 10);
      else return std::nullopt;
    } else {
      return std::nullopt;
    }
  }
  return args;
}

int cmd_list() {
  AsciiTable t({"name", "memory", "description"});
  // table1() returns by value: keep the registry alive across the loop.
  const FunctionRegistry registry = FunctionRegistry::table1();
  for (const FunctionModel& m : registry.models())
    t.add_row({m.name(), std::to_string(m.spec().memory_mb) + " MB",
               m.spec().description});
  t.print();
  return 0;
}

std::vector<Request> make_requests(const Args& args) {
  if (args.inputs.rfind("fixed:", 0) == 0) {
    const int input = std::atoi(args.inputs.c_str() + 6);
    return RequestGenerator::fixed(args.requests,
                                   std::clamp(input, 0, kNumInputs - 1),
                                   args.seed);
  }
  if (args.inputs == "uniform")
    return RequestGenerator::uniform(args.requests, args.seed);
  return RequestGenerator::round_robin(args.requests, args.seed);
}

int cmd_run(const Args& args) {
  const FunctionRegistry registry = FunctionRegistry::table1();
  const FunctionModel* m = registry.find(args.function);
  if (!m) {
    std::fprintf(stderr, "unknown function '%s' (try: toss_cli list)\n",
                 args.function.c_str());
    return 1;
  }
  PolicyKind kind;
  if (args.policy == "toss") kind = PolicyKind::kToss;
  else if (args.policy == "reap") kind = PolicyKind::kReap;
  else if (args.policy == "faasnap") kind = PolicyKind::kFaasnap;
  else if (args.policy == "vanilla") kind = PolicyKind::kVanilla;
  else return usage();

  ServerlessPlatform platform;
  TossOptions opt;
  opt.stable_invocations = args.stable;
  opt.slowdown_threshold = args.threshold;
  if (Result<void> reg = platform.register_function(
          FunctionRegistration(m->spec()).policy(kind).toss(opt));
      !reg.ok()) {
    std::fprintf(stderr, "registration failed: %s\n", reg.message().c_str());
    return 1;
  }

  TossPhase last = TossPhase::kInitial;
  bool first = true;
  size_t n = 0;
  for (const Request& r : make_requests(args)) {
    const InvocationOutcome out =
        platform.invoke(args.function, r.input, r.seed).value();
    if (first || (kind == PolicyKind::kToss && out.toss_phase != last)) {
      std::printf("request %4zu: %-9s latency=%s\n", n,
                  kind == PolicyKind::kToss ? phase_name(out.toss_phase)
                                            : policy_name(kind),
                  format_nanos(out.result.total_ns()).c_str());
      last = out.toss_phase;
      first = false;
    }
    ++n;
  }
  const FunctionStats& stats = platform.stats(args.function);
  std::printf(
      "\n%zu requests: mean latency %s (max %s), mean setup %s, total bill "
      "$%.3e\n",
      n, format_nanos(stats.total_ns.mean()).c_str(),
      format_nanos(stats.total_ns.max()).c_str(),
      format_nanos(stats.setup_ns.mean()).c_str(), stats.total_charge);
  if (kind == PolicyKind::kToss) {
    if (const TossFunction* state = platform.toss_state(args.function);
        state->phase() == TossPhase::kTiered && state->decision()) {
      const TieringDecision& d = *state->decision();
      std::printf(
          "tiering: %.1f%% slow tier, %.1f%% slowdown, cost %.2f "
          "(DRAM = 1.00)\n",
          d.slow_fraction * 100, d.expected_slowdown * 100,
          d.normalized_cost);
    } else {
      std::puts("profiling did not converge; raise --requests");
    }
  }
  return 0;
}

int cmd_decide(const Args& args) {
  const FunctionRegistry registry = FunctionRegistry::table1();
  const FunctionModel* m = registry.find(args.function);
  if (!m) {
    std::fprintf(stderr, "unknown function '%s'\n", args.function.c_str());
    return 1;
  }
  SystemConfig cfg = SystemConfig::paper_default();
  cfg.tiers[0].cost_per_mib = args.ratio;
  cfg.tiers[1].cost_per_mib = 1.0;

  const double scale = DamonConfig{}.count_scale;
  PageAccessCounts unified(m->guest_pages());
  for (int input = 0; input < kNumInputs; ++input)
    for (u64 rep = 0; rep < 3; ++rep)
      unified.merge_max(PageAccessCounts::from_trace(
          m->invoke(input, args.seed + rep).trace, m->guest_pages()));
  for (u64 p = 0; p < unified.num_pages(); ++p)
    unified.set(p,
                static_cast<u64>(static_cast<double>(unified.at(p)) * scale));

  TieringOptions opt;
  opt.slowdown_threshold = args.threshold;
  const TieringDecision d = analyze_pattern(
      cfg, unified, m->invoke(kNumInputs - 1, args.seed + 9), opt);

  std::printf("%s @ cost ratio %.2f:\n", m->name().c_str(), args.ratio);
  AsciiTable t({"bin (offload order)", "bytes", "marginal slowdown",
                "cumulative cost", "offloaded"});
  for (const BinStep& s : d.profile.steps) {
    t.add_row({std::to_string(s.bin_index),
               format_bytes(static_cast<u64>(
                   s.byte_fraction * static_cast<double>(m->guest_bytes()))),
               fmt_pct(s.marginal_slowdown), fmt_f(s.cumulative_cost),
               d.offloaded[s.bin_index] ? "yes" : "no"});
  }
  t.print();
  std::printf(
      "decision: %.1f%% slow, %.1f%% slowdown, cost %.2f (optimal %.2f)\n",
      d.slow_fraction * 100, d.expected_slowdown * 100, d.normalized_cost,
      optimal_normalized_cost(cfg.cost_ratio()));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = parse(argc, argv);
  if (!args) return usage();
  if (args->command == "list") return cmd_list();
  if (args->command == "run") return cmd_run(*args);
  if (args->command == "decide") return cmd_decide(*args);
  return usage();
}
