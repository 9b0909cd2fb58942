// Differential test of the VM data plane: the extent-granular MicroVm
// (src/vmm/microvm.cpp) against the frozen per-page reference
// (tests/reference/per_page_vm.cpp).
//
// Twin snapshot stores receive identical operations, one driven by each VM.
// Over every Table-I function x 4 inputs x 3 seeds x {vanilla, REAP,
// FaaSnap, TOSS tiered}, on the paper's two-rung ladder and the three-rung
// CXL ladder, every invocation's SetupResult and ExecutionResult must match
// bit for bit, and so must the restored guest versions and the host page
// cache's page count. In -DTOSS_FAULTS=ON builds both stores carry an
// injector built from the same plan, so restore failures, slow-tier stalls
// and guest crashes hit both sides at the same arm and must surface as the
// same Error.
//
// The matrix also runs against references with one planted fault each (an
// off-by-one mapping, copy-on-write charged once per segment, a Zipf
// normalizer summed in reverse) and must report a diff for every one: the
// test shows it can fail. One synthetic function rides along with Table I
// to give the last of these resolution (zipf_resolution_probe).
#include <gtest/gtest.h>

#include <bit>
#include <memory>
#include <sstream>

#include "baseline/faasnap.hpp"
#include "baseline/reap.hpp"
#include "baseline/vanilla.hpp"
#include "core/optimizer.hpp"
#include "core/tierer.hpp"
#include "reference/per_page_vm.hpp"
#include "trace/pattern.hpp"
#include "trace/working_set.hpp"
#include "util/error.hpp"
#include "workloads/functions.hpp"

namespace toss {
namespace {

using reference::Perturbation;

constexpr u64 kSeeds[] = {11, 23, 47};

/// What one restore (or boot) plus execute produced.
struct Outcome {
  bool threw = false;
  std::string error;
  SetupResult setup;
  ExecutionResult exec;
};

template <typename Vm>
Outcome run(Vm& vm, const RestorePlan* plan, u64 guest_bytes,
            const Invocation& inv) {
  Outcome o;
  try {
    o.setup = plan != nullptr ? vm.restore(*plan)
                              : vm.boot(guest_bytes, VmState{});
    o.exec = vm.execute(inv.trace, inv.cpu_ns);
  } catch (const Error& e) {
    o.threw = true;
    o.error = e.what();
  }
  return o;
}

/// Collects field-level differences; doubles compare by bit pattern.
class Differ {
 public:
  explicit Differ(std::string where) : where_(std::move(where)) {}

  void field(const char* name, double a, double b) {
    if (std::bit_cast<u64>(a) != std::bit_cast<u64>(b)) {
      std::ostringstream s;
      s.precision(17);
      s << name << " " << a << " vs " << b;
      add(s.str());
    }
  }
  void field(const char* name, u64 a, u64 b) {
    if (a != b)
      add(std::string(name) + " " + std::to_string(a) + " vs " +
          std::to_string(b));
  }
  void text(const char* name, const std::string& a, const std::string& b) {
    if (a != b) add(std::string(name) + " '" + a + "' vs '" + b + "'");
  }
  void add(const std::string& what) { diffs_.push_back(where_ + ": " + what); }

  std::vector<std::string> take() { return std::move(diffs_); }

 private:
  std::string where_;
  std::vector<std::string> diffs_;
};

void diff_outcomes(Differ& d, const Outcome& a, const Outcome& b) {
  d.field("threw", u64{a.threw}, u64{b.threw});
  d.text("error", a.error, b.error);
  const SetupResult& s = a.setup;
  const SetupResult& t = b.setup;
  d.field("setup_ns", s.setup_ns, t.setup_ns);
  d.field("vm_state_ns", s.vm_state_ns, t.vm_state_ns);
  d.field("mmap_ns", s.mmap_ns, t.mmap_ns);
  d.field("eager_load_ns", s.eager_load_ns, t.eager_load_ns);
  d.field("mappings", s.mappings, t.mappings);
  d.field("eager_pages", s.eager_pages, t.eager_pages);
  const ExecutionResult& x = a.exec;
  const ExecutionResult& y = b.exec;
  d.field("exec_ns", x.exec_ns, y.exec_ns);
  d.field("cpu_ns", x.cpu_ns, y.cpu_ns);
  d.field("mem_ns", x.mem_ns, y.mem_ns);
  for (size_t r = 0; r < kMaxTiers; ++r) {
    d.field("mem_tier_ns", x.mem_tier_ns[r], y.mem_tier_ns[r]);
    d.field("tier_read_bytes", x.tier_read_bytes[r], y.tier_read_bytes[r]);
    d.field("tier_write_bytes", x.tier_write_bytes[r], y.tier_write_bytes[r]);
  }
  d.field("fault_ns", x.fault_ns, y.fault_ns);
  d.field("disk_ns", x.disk_ns, y.disk_ns);
  d.field("profiling_overhead_ns", x.profiling_overhead_ns,
          y.profiling_overhead_ns);
  d.field("minor_faults", x.minor_faults, y.minor_faults);
  d.field("major_faults", x.major_faults, y.major_faults);
  d.field("cow_faults", x.cow_faults, y.cow_faults);
  d.field("disk_pages", x.disk_pages, y.disk_pages);
  d.field("touched_pages", x.touched_pages, y.touched_pages);
  d.field("slow_accesses", x.slow_accesses, y.slow_accesses);
  d.field("total_accesses", x.total_accesses, y.total_accesses);
}

void diff_memory(Differ& d, const GuestMemory& a, const GuestMemory& b) {
  d.field("guest_pages", a.num_pages(), b.num_pages());
  for (u64 p = 0; p < std::min(a.num_pages(), b.num_pages()); ++p) {
    if (a.version(p) != b.version(p)) {
      d.add("version of page " + std::to_string(p) + " " +
            std::to_string(a.version(p)) + " vs " +
            std::to_string(b.version(p)));
      return;
    }
  }
}

FaultPlan data_plane_faults(u64 seed) {
  FaultPlan plan;
  plan.seed = seed;
  plan.set(FaultSite::kRestoreMapping, {.probability = 0.1});
  plan.set(FaultSite::kSlowTierStall,
           {.probability = 0.25, .delay_ns = ms(0.7)});
  plan.set(FaultSite::kExecCrash, {.probability = 0.05});
  return plan;
}

/// Table-I bursts carry too few accesses for the last bits of a Zipf
/// normalizer to move any page's count: summing z in reverse changes no
/// count of any Table-I burst. This synthetic function's skewed region
/// carries about 1e17 accesses, where a last-bit change in z does move
/// counts, so the matrix can see drift in how z is summed.
FunctionSpec zipf_resolution_probe() {
  FunctionSpec f;
  f.name = "zipf_resolution_probe";
  f.memory_mb = 128;
  f.cpu_ms = {1, 2, 3, 4};
  PhaseSpec hot;
  hot.name = "hot";
  hot.offset_mib = 8;
  hot.size_mib = {40, 40, 40, 40};
  hot.pattern = Pattern::kRandom;
  hot.write_fraction = 0.3;
  hot.zipf_theta = 1.1;
  hot.accesses_per_page = {1e13, 1e13, 1e13, 1e13};
  f.phases.push_back(hot);
  return f;
}

/// Every Table-I function, then the probe above.
std::vector<FunctionSpec> matrix_functions() {
  std::vector<FunctionSpec> specs = workloads::all_functions();
  specs.push_back(zipf_resolution_probe());
  return specs;
}

/// Twin stores fed identical operations: `prod` serves the production
/// MicroVm, `ref` the reference. Each owns an injector built from the same
/// plan, attached only once both Step-I snapshots exist.
struct Twin {
  Twin(const SystemConfig& cfg, u64 seed)
      : prod(cfg),
        ref(cfg),
        prod_faults(data_plane_faults(seed), 0),
        ref_faults(data_plane_faults(seed), 0) {}

  void arm() {
    prod.attach_faults(&prod_faults);
    ref.attach_faults(&ref_faults);
  }

  SnapshotStore prod;
  SnapshotStore ref;
  FaultInjector prod_faults;
  FaultInjector ref_faults;
};

/// What the matrix exercised, so a vacuous pass shows up.
struct Coverage {
  u64 invocations = 0;
  u64 major_faults = 0;
  u64 cow_faults = 0;
  u64 slow_accesses = 0;
  u64 eager_pages = 0;
  u64 errors = 0;
};

class Matrix {
 public:
  explicit Matrix(Perturbation perturb) : perturb_(perturb) {}

  /// Runs the whole matrix; with `stop_at_first`, returns at the first
  /// diff.
  std::vector<std::string> run_all(bool stop_at_first) {
    std::vector<std::string> diffs;
    const SystemConfig ladders[] = {SystemConfig::paper_default(),
                                    SystemConfig::cxl_host()};
    const char* ladder_names[] = {"paper", "cxl"};
    for (size_t l = 0; l < 2; ++l) {
      for (const FunctionSpec& spec : matrix_functions()) {
        const FunctionModel model(spec);
        for (u64 seed : kSeeds) {
          run_lane(ladders[l],
                   std::string(ladder_names[l]) + "/" + spec.name + "/seed" +
                       std::to_string(seed),
                   model, seed, diffs);
          if (stop_at_first && !diffs.empty()) return diffs;
        }
      }
    }
    return diffs;
  }

  const Coverage& coverage() const { return coverage_; }

 private:
  void compare(Differ& d, const Outcome& prod, const Outcome& ref,
               const MicroVm& pvm, const reference::MicroVm& rvm,
               const Twin& twin) {
    diff_outcomes(d, prod, ref);
    if (!prod.threw && !ref.threw) diff_memory(d, pvm.memory(), rvm.memory());
    d.field("cached_pages", twin.prod.page_cache().cached_pages(),
            twin.ref.page_cache().cached_pages());
    ++coverage_.invocations;
    coverage_.major_faults += prod.exec.major_faults;
    coverage_.cow_faults += prod.exec.cow_faults;
    coverage_.slow_accesses += prod.exec.slow_accesses;
    coverage_.eager_pages += prod.setup.eager_pages;
    coverage_.errors += prod.threw ? 1 : 0;
  }

  void run_lane(const SystemConfig& cfg, const std::string& name,
                const FunctionModel& model, u64 seed,
                std::vector<std::string>& diffs) {
    Twin twin(cfg, seed);
    const u64 pages = model.guest_pages();

    // Step I on both sides: cold boot, run, write back, snapshot.
    const Invocation first = model.invoke(0, seed);
    MicroVm pvm(cfg, twin.prod);
    reference::MicroVm rvm(cfg, twin.ref, perturb_);
    Differ boot(name + "/boot");
    compare(boot, run(pvm, nullptr, model.guest_bytes(), first),
            run(rvm, nullptr, model.guest_bytes(), first), pvm, rvm, twin);
    pvm.apply_writes(first.trace);
    rvm.apply_writes(first.trace);
    const u64 single = twin.prod.put_single_tier(pvm.memory(), VmState{});
    boot.field("single_tier_id", single,
               twin.ref.put_single_tier(rvm.memory(), VmState{}));

    // Step III on the production side; Step IV into both stores.
    const PageAccessCounts counts =
        PageAccessCounts::from_trace(first.trace, pages);
    const TieringDecision decision =
        analyze_pattern(cfg, counts, first, TieringOptions{});
    const u64 tiered = tier_snapshot(
        twin.prod, *twin.prod.get_single_tier(single), decision.placement);
    boot.field("tiered_id", tiered,
               tier_snapshot(twin.ref, *twin.ref.get_single_tier(single),
                             decision.placement));
    for (std::string& s : boot.take()) diffs.push_back(std::move(s));
    if (!diffs.empty()) return;

    const u64 readahead = twin.prod.page_cache().readahead_pages();
    std::vector<std::unique_ptr<RestorePolicy>> policies;
    policies.push_back(std::make_unique<VanillaPolicy>(twin.prod, single));
    policies.push_back(std::make_unique<ReapPolicy>(
        twin.prod, single, ReapPolicy::record_working_set(first.trace, pages)));
    policies.push_back(std::make_unique<FaasnapPolicy>(
        twin.prod, single,
        FaasnapPolicy::record_working_set(first.trace, pages, readahead)));
    policies.push_back(std::make_unique<TossPolicy>(twin.prod, tiered));

    twin.arm();
    for (const auto& policy : policies) {
      // Plans come from the production store; the twin holds the same
      // files under the same ids.
      const RestorePlan plan = policy->plan_restore();
      for (int input = 0; input < kNumInputs; ++input) {
        const Invocation inv =
            model.invoke(input, seed * 101 + static_cast<u64>(input));
        // Alternate cold and warm host page caches.
        if (input % 2 == 0) {
          twin.prod.drop_caches();
          twin.ref.drop_caches();
        }
        MicroVm p(cfg, twin.prod);
        reference::MicroVm r(cfg, twin.ref, perturb_);
        Differ d(name + "/" + policy->name() + "/input" +
                 std::to_string(input));
        compare(d, run(p, &plan, 0, inv), run(r, &plan, 0, inv), p, r, twin);
        for (std::string& s : d.take()) diffs.push_back(std::move(s));
      }
    }
  }

  Perturbation perturb_;
  Coverage coverage_;
};

std::string first_diffs(const std::vector<std::string>& diffs) {
  std::string out;
  for (size_t i = 0; i < diffs.size() && i < 10; ++i) out += diffs[i] + "\n";
  return out;
}

TEST(Differential, ExtentVmMatchesPerPageReference) {
  Matrix matrix(Perturbation::kNone);
  const std::vector<std::string> diffs = matrix.run_all(false);
  EXPECT_TRUE(diffs.empty()) << diffs.size() << " diffs, first:\n"
                             << first_diffs(diffs);
  // Every costly path ran: 2 ladders x (Table I + probe) x 3 seeds x
  // (boot + 4 policies x 4 inputs).
  const Coverage& c = matrix.coverage();
  EXPECT_EQ(c.invocations, 2u * matrix_functions().size() * 3 * 17);
  EXPECT_GT(c.major_faults, 0u);
  EXPECT_GT(c.cow_faults, 0u);
  EXPECT_GT(c.slow_accesses, 0u);
  EXPECT_GT(c.eager_pages, 0u);
  if (fault_injection_enabled()) {
    EXPECT_GT(c.errors, 0u);
  }
}

class PerturbedReference : public ::testing::TestWithParam<Perturbation> {};

TEST_P(PerturbedReference, IsCaught) {
  Matrix matrix(GetParam());
  EXPECT_FALSE(matrix.run_all(true).empty());
}

INSTANTIATE_TEST_SUITE_P(
    Differential, PerturbedReference,
    ::testing::Values(Perturbation::kMappingOffByOne,
                      Perturbation::kCowPerSegment,
                      Perturbation::kZipfReverse),
    [](const ::testing::TestParamInfo<Perturbation>& info) {
      switch (info.param) {
        case Perturbation::kMappingOffByOne: return "MappingOffByOne";
        case Perturbation::kCowPerSegment: return "CowPerSegment";
        case Perturbation::kZipfReverse: return "ZipfReverse";
        case Perturbation::kNone: break;
      }
      return "None";
    });

}  // namespace
}  // namespace toss
