#include "reference/per_page_vm.hpp"

#include <cmath>

#include "util/contracts.hpp"
#include "util/error.hpp"

namespace toss::reference {

std::vector<u64> expand_burst_counts(const AccessBurst& burst,
                                     Perturbation perturb) {
  TOSS_REQUIRE(burst.page_count > 0);
  std::vector<u64> counts(burst.page_count, 0);
  if (burst.accesses == 0) return counts;
  if (burst.zipf_theta <= 1e-9) {
    const u64 base = burst.accesses / burst.page_count;
    const u64 rem = burst.accesses % burst.page_count;
    for (u64 i = 0; i < burst.page_count; ++i)
      counts[i] = base + (i < rem ? 1 : 0);
    return counts;
  }
  double z = 0.0;
  std::vector<double> w(burst.page_count);
  for (u64 i = 0; i < burst.page_count; ++i) {
    w[i] = 1.0 / std::pow(static_cast<double>(i + 1), burst.zipf_theta);
    if (perturb != Perturbation::kZipfReverse) z += w[i];
  }
  if (perturb == Perturbation::kZipfReverse)
    for (u64 i = burst.page_count; i-- > 0;) z += w[i];
  u64 assigned = 0;
  for (u64 i = 0; i < burst.page_count; ++i) {
    counts[i] = static_cast<u64>(
        static_cast<double>(burst.accesses) * w[i] / z);
    assigned += counts[i];
  }
  counts[0] += burst.accesses - assigned;
  return counts;
}

BurstCost burst_cost(const SystemConfig& cfg, const AccessBurst& b,
                     const std::vector<u64>& counts,
                     const PagePlacement& placement) {
  TOSS_REQUIRE(counts.size() == b.page_count);
  TOSS_REQUIRE(b.page_end() <= placement.num_pages());
  const AccessCostModel model(cfg);
  const size_t ranks = cfg.tier_count();
  std::array<u64, kMaxTiers> accesses{};
  for (u64 i = 0; i < b.page_count; ++i)
    accesses[placement.rank_of(b.page_begin + i)] += counts[i];

  BurstCost cost;
  for (size_t rank = 0; rank < ranks; ++rank) {
    cost.tier_ns[rank] =
        static_cast<double>(accesses[rank]) *
        model.access_cost(tier_index(rank), b.pattern, b.write_fraction);
    const TierSpec& spec = cfg.tiers[rank];
    const double unit = b.pattern == Pattern::kSequential
                            ? static_cast<double>(kCacheLine)
                            : spec.random_granularity_bytes;
    const double bytes = static_cast<double>(accesses[rank]) * unit;
    cost.tier_read_bytes[rank] = bytes * (1.0 - b.write_fraction);
    cost.tier_write_bytes[rank] = bytes * b.write_fraction;
  }
  return cost;
}

MicroVm::MicroVm(const SystemConfig& cfg, SnapshotStore& store,
                 Perturbation perturb)
    : cfg_(&cfg), store_(&store), perturb_(perturb) {}

SetupResult MicroVm::boot(u64 guest_bytes, const VmState& state) {
  memory_ = GuestMemory(guest_bytes);
  vm_state_ = state;
  const u64 n = memory_.num_pages();
  placement_ = PagePlacement(n, tier_index(0));
  backing_.assign(n, PageBacking{});
  resident_.assign(n, false);
  written_.assign(n, false);

  SetupResult r;
  r.vm_state_ns = cfg_->vmm.boot_ns;
  r.mmap_ns = cfg_->vmm.mmap_region_ns;
  r.mappings = 1;
  r.setup_ns = r.vm_state_ns + r.mmap_ns;
  return r;
}

SetupResult MicroVm::restore(const RestorePlan& plan) {
  FaultInjector* faults = store_->faults();
  if (faults != nullptr && faults->should_fire(FaultSite::kRestoreMapping))
    throw Error(ErrorCode::kTransientIo,
                "mmap failed establishing restore mappings");

  vm_state_ = plan.vm_state;
  const u64 n = plan.guest_pages;
  memory_ = GuestMemory(bytes_for_pages(n));
  placement_ = PagePlacement(n, tier_index(0));
  backing_.assign(n, PageBacking{});
  resident_.assign(n, false);
  written_.assign(n, false);

  // kMappingOffByOne: the first mapping reads one file page further on,
  // except where that would run off its file.
  auto shift_of = [&](size_t mi, const RestoreMapping& m, u64 file_pages) {
    return perturb_ == Perturbation::kMappingOffByOne && mi == 0 &&
                   m.file_page + m.page_count < file_pages
               ? u64{1}
               : u64{0};
  };
  auto file_pages_of = [&](const RestoreMapping& m) -> u64 {
    if (!m.file_id) return 0;
    if (const SingleTierSnapshot* s = store_->get_single_tier(m.file_id))
      return s->num_pages();
    if (const TieredSnapshot* t = store_->get_tiered(m.file_id))
      return t->tier_pages(tier_rank(m.tier));
    return 0;
  };

  SetupResult r;
  r.vm_state_ns = cfg_->vmm.vm_state_load_ns;

  bool maps_slow_tier = false;
  for (size_t mi = 0; mi < plan.mappings.size(); ++mi) {
    const RestoreMapping& m = plan.mappings[mi];
    TOSS_REQUIRE(m.guest_page + m.page_count <= n);
    r.mmap_ns += cfg_->vmm.mmap_region_ns;
    ++r.mappings;
    maps_slow_tier |= tier_rank(m.tier) >= 1;
    const u64 shift = shift_of(mi, m, file_pages_of(m));
    for (u64 i = 0; i < m.page_count; ++i) {
      const u64 g = m.guest_page + i;
      placement_.set(g, m.tier);
      backing_[g] = PageBacking{m.file_id, m.file_page + i + shift, m.dax,
                                true};
    }
  }
  if (faults != nullptr && maps_slow_tier &&
      faults->should_fire(FaultSite::kSlowTierStall))
    r.mmap_ns += faults->stall_ns(FaultSite::kSlowTierStall);

  HostPageCache& cache = store_->page_cache();
  for (const auto& e : plan.eager) {
    u64 uncached = 0;
    for (u64 i = 0; i < e.page_count; ++i) {
      if (!cache.contains(e.file_id, e.file_page + i)) ++uncached;
      resident_[e.guest_page + i] = true;
    }
    cache.fill_range(e.file_id, e.file_page, e.page_count);
    r.eager_load_ns += store_->seq_read_ns(bytes_for_pages(uncached));
    r.eager_load_ns +=
        static_cast<double>(e.page_count) * cfg_->vmm.pte_populate_ns;
    r.eager_pages += e.page_count;
  }

  for (size_t mi = 0; mi < plan.mappings.size(); ++mi) {
    const RestoreMapping& m = plan.mappings[mi];
    if (!m.file_id) continue;
    if (const SingleTierSnapshot* snap = store_->get_single_tier(m.file_id)) {
      if (m.file_page + m.page_count > snap->num_pages())
        throw Error(ErrorCode::kSnapshotCorrupted,
                    "restore mapping overruns snapshot file " +
                        std::to_string(m.file_id) + " (" +
                        std::to_string(m.file_page + m.page_count) + " > " +
                        std::to_string(snap->num_pages()) + " pages)");
      const u64 shift = shift_of(mi, m, snap->num_pages());
      for (u64 i = 0; i < m.page_count; ++i)
        memory_.set_version(m.guest_page + i,
                            snap->page_version(m.file_page + i + shift));
      continue;
    }
    const TieredSnapshot* tiered = store_->get_tiered(m.file_id);
    if (tiered == nullptr)
      throw Error(ErrorCode::kSnapshotMissing,
                  "restore mapping references missing snapshot file " +
                      std::to_string(m.file_id));
    const u64 file_pages = tiered->tier_pages(tier_rank(m.tier));
    if (m.file_page + m.page_count > file_pages)
      throw Error(ErrorCode::kSnapshotCorrupted,
                  "restore mapping overruns tier file " +
                      std::to_string(m.file_id) + " (" +
                      std::to_string(m.file_page + m.page_count) + " > " +
                      std::to_string(file_pages) + " pages)");
    const u64 shift = shift_of(mi, m, file_pages);
    for (u64 i = 0; i < m.page_count; ++i) {
      const u64 fp = m.file_page + i + shift;
      memory_.set_version(m.guest_page + i,
                          tiered->tier_versions(tier_rank(m.tier))[fp]);
    }
  }

  r.setup_ns = r.vm_state_ns + r.mmap_ns + r.eager_load_ns;
  return r;
}

Nanos MicroVm::fault_cost(u64 page, Pattern pattern) {
  const PageBacking& b = backing_[page];
  if (!b.file_backed || b.dax) {
    ++pending_.minor_faults;
    return cfg_->vmm.minor_fault_ns;
  }
  HostPageCache& cache = store_->page_cache();
  if (cache.contains(b.file_id, b.file_page)) {
    ++pending_.minor_faults;
    return cfg_->vmm.minor_fault_ns;
  }
  if (pattern == Pattern::kSequential) {
    cache.fill(b.file_id, b.file_page);
  } else {
    cache.fill_one(b.file_id, b.file_page);
  }
  ++pending_.major_faults;
  ++pending_.disk_pages;
  pending_.disk_ns += cfg_->disk.random_read_latency_ns;
  return cfg_->disk.random_read_latency_ns + cfg_->vmm.major_fault_sw_ns;
}

ExecutionResult MicroVm::execute(const BurstTrace& trace, Nanos cpu_ns,
                                 Nanos profiling_overhead_ns) {
  if (FaultInjector* faults = store_->faults();
      faults != nullptr && faults->should_fire(FaultSite::kExecCrash))
    throw Error(ErrorCode::kExecutionCrashed,
                "guest crashed mid-invocation");
  pending_ = ExecutionResult{};
  ExecutionResult& r = pending_;
  r.cpu_ns = cpu_ns;
  r.profiling_overhead_ns = profiling_overhead_ns;

  const u64 n = memory_.num_pages();
  for (const AccessBurst& b : trace.bursts()) {
    TOSS_REQUIRE(b.page_end() <= n);
    (void)n;
    const std::vector<u64> counts = expand_burst_counts(b, perturb_);

    // kCowPerSegment: copy-on-write pages counted per rank, charged once
    // at the end of the burst.
    std::array<u64, kMaxTiers> cow_pages{};
    for (u64 i = 0; i < b.page_count; ++i) {
      if (counts[i] == 0) continue;
      const u64 g = b.page_begin + i;
      if (!resident_[g]) {
        r.fault_ns += fault_cost(g, b.pattern);
        resident_[g] = true;
        ++r.touched_pages;
      }
      if (b.write_fraction > 0.0 && !written_[g]) {
        const TierSpec& spec = cfg_->tier(placement_.tier_of(g));
        if (perturb_ == Perturbation::kCowPerSegment)
          ++cow_pages[placement_.rank_of(g)];
        else
          r.fault_ns += cfg_->vmm.minor_fault_ns +
                        static_cast<double>(kPageSize) /
                            spec.write_bw_bytes_per_ns;
        written_[g] = true;
        ++r.cow_faults;
      }
      if (placement_.rank_of(b.page_begin + i) != 0)
        r.slow_accesses += counts[i];
      r.total_accesses += counts[i];
    }
    for (size_t rank = 0; rank < cfg_->tier_count(); ++rank)
      if (cow_pages[rank] > 0)
        r.fault_ns += static_cast<double>(cow_pages[rank]) *
                      (cfg_->vmm.minor_fault_ns +
                       static_cast<double>(kPageSize) /
                           cfg_->tiers[rank].write_bw_bytes_per_ns);
    const BurstCost bc = burst_cost(*cfg_, b, counts, placement_);
    for (size_t rank = 0; rank < cfg_->tier_count(); ++rank) {
      r.mem_tier_ns[rank] += bc.tier_ns[rank];
      r.tier_read_bytes[rank] += bc.tier_read_bytes[rank];
      r.tier_write_bytes[rank] += bc.tier_write_bytes[rank];
    }
    r.mem_ns += bc.total_ns();
  }

  r.exec_ns = r.cpu_ns + r.mem_ns + r.fault_ns + r.profiling_overhead_ns;
  return r;
}

void MicroVm::apply_writes(const BurstTrace& trace) {
  for (const auto& b : trace.bursts()) {
    if (b.write_fraction <= 0.0) continue;
    for (u64 p = b.page_begin; p < b.page_end(); ++p)
      memory_.bump_version(p);
  }
}

}  // namespace toss::reference
