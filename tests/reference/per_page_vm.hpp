// Frozen per-page reference of the VM data plane.
//
// A test-only copy of the per-page MicroVm, AccessCostModel::burst_cost and
// expand_burst_counts as they stood before the data plane became
// extent-granular: restore fills a PageBacking per guest page, execute walks
// every burst page by page, and every burst recomputes its Zipf weights.
// differential_test runs it beside the production MicroVm and requires
// every SetupResult, ExecutionResult, guest version and page-cache count to
// match bit for bit. Do not optimize this file: its only job is to be
// obviously the old semantics.
//
// A Perturbation plants one known fault in the reference, so the
// differential test can show that it notices each kind of drift a fast path
// could introduce.
#pragma once

#include <vector>

#include "vmm/microvm.hpp"

namespace toss::reference {

enum class Perturbation {
  kNone,
  /// The first mapping reads its contents (and page-cache pages) one file
  /// page too far.
  kMappingOffByOne,
  /// Copy-on-write time is charged as count × addend once per burst and
  /// rank instead of one addition per page in access order.
  kCowPerSegment,
  /// The Zipf normalizer z is summed from the last page to the first.
  kZipfReverse,
};

std::vector<u64> expand_burst_counts(const AccessBurst& burst,
                                     Perturbation perturb = Perturbation::kNone);

BurstCost burst_cost(const SystemConfig& cfg, const AccessBurst& b,
                     const std::vector<u64>& counts,
                     const PagePlacement& placement);

class MicroVm {
 public:
  MicroVm(const SystemConfig& cfg, SnapshotStore& store,
          Perturbation perturb = Perturbation::kNone);

  SetupResult boot(u64 guest_bytes, const VmState& state);
  SetupResult restore(const RestorePlan& plan);
  ExecutionResult execute(const BurstTrace& trace, Nanos cpu_ns,
                          Nanos profiling_overhead_ns = 0);
  void apply_writes(const BurstTrace& trace);

  const GuestMemory& memory() const { return memory_; }

 private:
  struct PageBacking {
    u64 file_id = 0;
    u64 file_page = 0;
    bool dax = false;
    bool file_backed = false;
  };

  Nanos fault_cost(u64 page, Pattern pattern);

  ExecutionResult pending_;

  const SystemConfig* cfg_;
  SnapshotStore* store_;
  Perturbation perturb_;

  GuestMemory memory_{0};
  VmState vm_state_;
  PagePlacement placement_;
  std::vector<PageBacking> backing_;
  std::vector<bool> resident_;
  std::vector<bool> written_;
};

}  // namespace toss::reference
