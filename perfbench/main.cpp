// toss_perfbench: the repo benchmark program.
//
//   toss_perfbench --workload <tiered_steady|lifecycle_cold|cluster_overload>
//                  --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 repeats untraced rounds of the workload at kWorkers workers, at
// least three and more while another fits in --seconds, and prints the
// end-to-end metrics (medians over rounds for host time; the simulated
// metrics of a seed are identical in every round). --trace 1 is the
// separate per-layer run (traced.cpp). Either way the last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// preceded by a "build" line (the build guard's inputs) and a "ledger" line
// (the ledger digest the correctness gate compared, and its totals).
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "bench.hpp"

using namespace perfbench;

namespace {

/// Host-time figures from these builds would not describe the product, so
/// the benchmark refuses to report them.
struct BuildInfo {
  const char* build_type = PERFBENCH_BUILD_TYPE;
  bool faults = toss::fault_injection_enabled();
#ifdef TOSS_CHECKED
  bool checked = true;
#else
  bool checked = false;
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  bool sanitized = true;
#else
  bool sanitized = false;
#endif
#ifdef __OPTIMIZE__
  bool optimized = true;
#else
  bool optimized = false;
#endif
  unsigned nproc = std::thread::hardware_concurrency();

  bool fit_for_timing() const {
    return !faults && !checked && !sanitized && optimized;
  }
};

void print_result(bool correct, u64 attempted, u64 failed,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  std::printf("}}\n");
}

/// The ledger digest the correctness gate compared, with the totals of the
/// timed part it covers.
void print_ledger(const std::string& digest, const SimSummary& sim) {
  std::printf("ledger {\"digest\": \"%s\", \"offered\": %llu, "
              "\"completed\": %llu, \"shed\": %llu, \"incomplete\": %llu}\n",
              digest.c_str(), static_cast<unsigned long long>(sim.offered),
              static_cast<unsigned long long>(sim.completed),
              static_cast<unsigned long long>(sim.shed),
              static_cast<unsigned long long>(sim.incomplete));
}

int usage() {
  std::fprintf(stderr,
               "usage: toss_perfbench --workload "
               "<tiered_steady|lifecycle_cold|cluster_overload> --seed <n> "
               "--seconds <s> --trace <0|1>\n");
  return 2;
}

/// Untraced run: at least kMinRounds rounds, then more while another round
/// (at the mean round time so far) still ends within `seconds`.
int run_untraced(Workload workload, u64 seed, double seconds) {
  constexpr size_t kMinRounds = 3;
  const auto start = Clock::now();
  std::vector<Round> rounds;
  while (rounds.size() < kMinRounds ||
         seconds_since(start) * (rounds.size() + 1) / rounds.size() <=
             seconds) {
    rounds.push_back(run_round(workload, seed, kWorkers));
    const Round& r = rounds.back();
    std::printf("round %zu setup_s %.4f timed_s %.4f completed %llu "
                "throughput_inv_s %.2f\n",
                rounds.size(), r.setup_s, r.timed_s,
                static_cast<unsigned long long>(r.sim.completed),
                r.throughput);
  }

  bool correct = true;
  u64 attempted = 0, failed = 0;
  for (const Round& r : rounds) {
    for (const std::string& v : r.violations) {
      std::fprintf(stderr, "correctness: %s\n", v.c_str());
      correct = false;
    }
    if (r.digest != rounds.front().digest) {
      std::fprintf(stderr, "correctness: round digests differ (%s vs %s)\n",
                   r.digest.c_str(), rounds.front().digest.c_str());
      correct = false;
    }
    attempted += r.sim.offered;
    failed += r.sim.incomplete;
  }
  print_ledger(rounds.front().digest, rounds.front().sim);
  print_result(correct, attempted, failed,
               end_to_end_metrics(rounds, peak_rss_mb()));
  return correct ? 0 : 1;
}

int run_trace(Workload workload, u64 seed) {
  const TracedResult traced = run_traced(workload, seed);
  for (const std::string& v : traced.violations)
    std::fprintf(stderr, "correctness: %s\n", v.c_str());
  print_ledger(traced.digest, traced.sim);
  print_result(traced.violations.empty(), traced.sim.offered,
               traced.sim.incomplete, traced.metrics);
  return traced.violations.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name;
  u64 seed = 0;
  double seconds = -1;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") workload_name = value;
    else if (flag == "--seed") seed = std::strtoull(value, nullptr, 10);
    else if (flag == "--seconds") seconds = std::strtod(value, nullptr);
    else if (flag == "--trace") trace = std::atoi(value);
    else return usage();
  }
  Workload workload;
  if (argc % 2 != 1 || !parse_workload(workload_name, &workload) ||
      seconds < 0 || (trace != 0 && trace != 1))
    return usage();

  const BuildInfo build;
  std::printf("build {\"build_type\": \"%s\", \"nproc\": %u, "
              "\"fault_injection_enabled\": %s, \"toss_checked\": %s, "
              "\"sanitizer\": %s, \"optimized\": %s, \"workers\": %d}\n",
              build.build_type, build.nproc, build.faults ? "true" : "false",
              build.checked ? "true" : "false",
              build.sanitized ? "true" : "false",
              build.optimized ? "true" : "false", trace ? 1 : kWorkers);
  if (!build.fit_for_timing()) {
    std::fprintf(stderr,
                 "toss_perfbench: refusing to report host-time metrics from "
                 "a checked, fault-injecting, sanitizer or unoptimized "
                 "build\n");
    return 3;
  }
  std::fflush(stdout);
  return trace ? run_trace(workload, seed)
               : run_untraced(workload, seed, seconds);
}
