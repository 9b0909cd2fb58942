// MicroVm: the Firecracker-like virtual machine model.
//
// A restore policy (vanilla lazy, REAP prefetch, TOSS tiered) compiles to a
// RestorePlan: memory mappings plus optional eager loads. The VM then
// executes an invocation's BurstTrace, charging page faults on first touch
// (minor when the backing page is cached/DAX, major when it must come from
// disk), copy-on-write faults on first write, and tier-dependent memory
// time for the accesses themselves.
#pragma once

#include <vector>

#include "mem/access_cost.hpp"
#include "trace/burst.hpp"
#include "vmm/snapshot_store.hpp"

namespace toss {

/// One memory mapping established at restore (one mmap() call).
struct RestoreMapping {
  u64 guest_page = 0;
  u64 page_count = 0;
  Tier tier = tier_index(0);
  u64 file_id = 0;
  u64 file_page = 0;
  /// DAX mappings (deep-tier files) access the backing device directly:
  /// first touch is a minor fault, never a disk read.
  bool dax = false;
};

/// Pages loaded eagerly at restore (REAP's working-set prefetch): read from
/// disk sequentially and their PTEs pre-populated, so execution takes no
/// fault at all for them.
struct EagerLoad {
  u64 guest_page = 0;
  u64 page_count = 0;
  u64 file_id = 0;
  u64 file_page = 0;
};

struct RestorePlan {
  VmState vm_state;
  u64 guest_pages = 0;
  std::vector<RestoreMapping> mappings;
  std::vector<EagerLoad> eager;

  u64 mapping_count() const { return static_cast<u64>(mappings.size()); }
  u64 eager_pages() const;
};

struct SetupResult {
  Nanos setup_ns = 0;
  Nanos vm_state_ns = 0;
  Nanos mmap_ns = 0;
  Nanos eager_load_ns = 0;
  u64 mappings = 0;
  u64 eager_pages = 0;
};

struct ExecutionResult {
  Nanos exec_ns = 0;  ///< cpu + memory + faults + profiling overhead
  Nanos cpu_ns = 0;
  Nanos mem_ns = 0;        ///< sum of mem_tier_ns over the ladder
  /// Memory time per ladder rank (0 = fastest); ranks beyond the ladder
  /// stay zero. Each rank is its own contention pool.
  std::array<Nanos, kMaxTiers> mem_tier_ns{};
  Nanos fault_ns = 0;      ///< all fault handling, incl. disk_ns
  Nanos disk_ns = 0;       ///< device portion of major faults
  Nanos profiling_overhead_ns = 0;
  u64 minor_faults = 0;
  u64 major_faults = 0;
  u64 cow_faults = 0;
  u64 disk_pages = 0;       ///< pages demand-read from disk
  u64 touched_pages = 0;
  u64 slow_accesses = 0;    ///< LLC misses served below the fastest tier
  u64 total_accesses = 0;
  /// Device bandwidth demand per rank, for the concurrency contention model.
  std::array<double, kMaxTiers> tier_read_bytes{};
  std::array<double, kMaxTiers> tier_write_bytes{};
};

struct InvocationResult {
  SetupResult setup;
  ExecutionResult exec;
  Nanos total_ns() const { return setup.setup_ns + exec.exec_ns; }
};

class MicroVm {
 public:
  MicroVm(const SystemConfig& cfg, SnapshotStore& store);

  /// Cold boot with anonymous DRAM memory (initial execution, Step I).
  SetupResult boot(u64 guest_bytes, const VmState& state);

  /// Restore from a plan. Establishes mappings, performs eager loads.
  /// The plan's mappings must be sorted by guest_page and disjoint; pages
  /// outside every mapping are anonymous fastest-tier memory. Costs
  /// O(mappings) plus range copies of the mapped page versions.
  SetupResult restore(const RestorePlan& plan);

  /// Execute one invocation: `trace` is its memory activity, `cpu_ns` the
  /// pure compute time. `profiling_overhead_ns` is added when DAMON rides
  /// along. Mutates residency/page-cache state. Each burst is walked as
  /// segments, its intersections with the mappings and the gaps between.
  ExecutionResult execute(const BurstTrace& trace, Nanos cpu_ns,
                          Nanos profiling_overhead_ns = 0);

  /// Write-back of the workload's dirty pages into guest memory versions,
  /// so a snapshot taken after execution reflects the run.
  void apply_writes(const BurstTrace& trace);

  /// Snapshot current guest memory (single tier); returns file id.
  u64 take_snapshot();

  const GuestMemory& memory() const { return memory_; }
  GuestMemory& memory() { return memory_; }
  const VmState& vm_state() const { return vm_state_; }
  u64 guest_pages() const { return memory_.num_pages(); }

 private:
  /// First touches and copy-on-write faults of burst pages [begin, end),
  /// which all lie in `mapping` (null: an anonymous gap), in page order.
  void touch_segment(const AccessBurst& b, const BurstCounts& counts,
                     u64 begin, u64 end, const RestoreMapping* mapping);

  /// First touch of a page demand-paged from `m`'s file: minor when the
  /// host page cache holds it, else a major fault that reads it from disk.
  Nanos demand_fault_ns(const RestoreMapping& m, u64 page, Pattern pattern);

  /// Fault counters for the execute() call in progress.
  ExecutionResult pending_;

  const SystemConfig* cfg_;
  SnapshotStore* store_;
  AccessCostModel cost_model_;

  GuestMemory memory_{0};
  VmState vm_state_;
  /// One bit per guest page. A plain word bitmap: on the 1-thread
  /// engine_throughput bench it ran ~10% faster end to end than
  /// std::vector<bool>.
  class PageBits {
   public:
    void reset(u64 pages) { words_.assign((pages + 63) / 64, 0); }
    bool test(u64 page) const {
      return ((words_[page / 64] >> (page % 64)) & 1) != 0;
    }
    void set(u64 page) { words_[page / 64] |= u64{1} << (page % 64); }
    void set_range(u64 begin, u64 count) {
      for (u64 p = begin; p < begin + count; ++p) set(p);
    }

   private:
    std::vector<u64> words_;
  };

  /// The restore plan's mappings, sorted by guest_page (empty after boot).
  std::vector<RestoreMapping> mappings_;
  PageBits resident_;  ///< first touch taken (or eagerly loaded)
  PageBits written_;   ///< copy-on-write taken
};

}  // namespace toss
