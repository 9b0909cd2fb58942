#include "vmm/microvm.hpp"

#include <algorithm>

#include "util/contracts.hpp"
#include "util/error.hpp"

namespace toss {

u64 RestorePlan::eager_pages() const {
  u64 n = 0;
  for (const auto& e : eager) n += e.page_count;
  return n;
}

MicroVm::MicroVm(const SystemConfig& cfg, SnapshotStore& store)
    : cfg_(&cfg), store_(&store), cost_model_(cfg) {}

SetupResult MicroVm::boot(u64 guest_bytes, const VmState& state) {
  memory_ = GuestMemory(guest_bytes);
  vm_state_ = state;
  const u64 n = memory_.num_pages();
  mappings_.clear();  // anonymous, zero-fill on demand
  resident_.reset(n);
  written_.reset(n);

  SetupResult r;
  r.vm_state_ns = cfg_->vmm.boot_ns;
  r.mmap_ns = cfg_->vmm.mmap_region_ns;  // one anonymous mapping
  r.mappings = 1;
  r.setup_ns = r.vm_state_ns + r.mmap_ns;
  return r;
}

SetupResult MicroVm::restore(const RestorePlan& plan) {
  // Injection sites for the restore failure domain: a transient mapping
  // failure (retried by the recovery ladder) and a slow-tier device stall
  // (latency spike charged to setup, not an error). Armed before any VM
  // state changes so a thrown fault leaves this MicroVm untouched.
  FaultInjector* faults = store_->faults();
  if (faults != nullptr && faults->should_fire(FaultSite::kRestoreMapping))
    throw Error(ErrorCode::kTransientIo,
                "mmap failed establishing restore mappings");

  const u64 n = plan.guest_pages;
  for (size_t i = 0; i < plan.mappings.size(); ++i) {
    const RestoreMapping& m = plan.mappings[i];
    TOSS_REQUIRE(m.guest_page + m.page_count <= n);
    TOSS_REQUIRE(i == 0 || plan.mappings[i - 1].guest_page +
                                   plan.mappings[i - 1].page_count <=
                               m.guest_page,
                 "restore mappings must be sorted by guest_page and "
                 "disjoint");
  }
  vm_state_ = plan.vm_state;
  memory_ = GuestMemory(bytes_for_pages(n));
  mappings_ = plan.mappings;
  resident_.reset(n);
  written_.reset(n);

  SetupResult r;
  r.vm_state_ns = cfg_->vmm.vm_state_load_ns;

  bool maps_slow_tier = false;
  for (const auto& m : plan.mappings) {
    r.mmap_ns += cfg_->vmm.mmap_region_ns;
    ++r.mappings;
    maps_slow_tier |= tier_rank(m.tier) >= 1;
  }
  if (faults != nullptr && maps_slow_tier &&
      faults->should_fire(FaultSite::kSlowTierStall))
    r.mmap_ns += faults->stall_ns(FaultSite::kSlowTierStall);

  // Eager loads: sequential disk reads (through the page cache) plus PTE
  // population, REAP-style. Contiguous file ranges stream at full disk
  // bandwidth; the cache may already hold some pages.
  HostPageCache& cache = store_->page_cache();
  for (const auto& e : plan.eager) {
    TOSS_REQUIRE(e.guest_page + e.page_count <= n);
    const u64 uncached = cache.fill_range(e.file_id, e.file_page,
                                          e.page_count);
    resident_.set_range(e.guest_page, e.page_count);
    r.eager_load_ns += store_->seq_read_ns(bytes_for_pages(uncached));
    r.eager_load_ns +=
        static_cast<double>(e.page_count) * cfg_->vmm.pte_populate_ns;
    r.eager_pages += e.page_count;
  }

  // Materialize contents for integrity checking: guest memory versions come
  // from the backing snapshot files, one range copy per mapping. A mapping
  // over a file the store cannot resolve (deleted, quarantined, or never
  // written) is a hard restore failure, not a silent zero-fill.
  for (const auto& m : plan.mappings) {
    if (!m.file_id) continue;
    if (const SingleTierSnapshot* snap = store_->get_single_tier(m.file_id)) {
      if (m.file_page + m.page_count > snap->num_pages())
        throw Error(ErrorCode::kSnapshotCorrupted,
                    "restore mapping overruns snapshot file " +
                        std::to_string(m.file_id) + " (" +
                        std::to_string(m.file_page + m.page_count) + " > " +
                        std::to_string(snap->num_pages()) + " pages)");
      memory_.set_versions(m.guest_page,
                           snap->page_versions().data() + m.file_page,
                           m.page_count);
      continue;
    }
    // Tiered snapshot files resolve by either the fast or the slow file id.
    const TieredSnapshot* tiered = store_->get_tiered(m.file_id);
    if (tiered == nullptr)
      throw Error(ErrorCode::kSnapshotMissing,
                  "restore mapping references missing snapshot file " +
                      std::to_string(m.file_id));
    const std::vector<u32>& file = tiered->tier_versions(tier_rank(m.tier));
    if (m.file_page + m.page_count > file.size())
      throw Error(ErrorCode::kSnapshotCorrupted,
                  "restore mapping overruns tier file " +
                      std::to_string(m.file_id) + " (" +
                      std::to_string(m.file_page + m.page_count) + " > " +
                      std::to_string(file.size()) + " pages)");
    memory_.set_versions(m.guest_page, file.data() + m.file_page,
                         m.page_count);
  }

  r.setup_ns = r.vm_state_ns + r.mmap_ns + r.eager_load_ns;
  return r;
}

Nanos MicroVm::demand_fault_ns(const RestoreMapping& m, u64 page,
                               Pattern pattern) {
  const u64 file_page = m.file_page + (page - m.guest_page);
  HostPageCache& cache = store_->page_cache();
  if (cache.contains(m.file_id, file_page)) {
    ++pending_.minor_faults;
    return cfg_->vmm.minor_fault_ns;
  }
  // Major fault: 4 KiB random read from disk. Sequential streams benefit
  // from readahead (neighbors land in the cache); random access does not.
  if (pattern == Pattern::kSequential) {
    cache.fill(m.file_id, file_page);
  } else {
    cache.fill_one(m.file_id, file_page);
  }
  ++pending_.major_faults;
  ++pending_.disk_pages;
  pending_.disk_ns += cfg_->disk.random_read_latency_ns;
  return cfg_->disk.random_read_latency_ns + cfg_->vmm.major_fault_sw_ns;
}

void MicroVm::touch_segment(const AccessBurst& b, const BurstCounts& counts,
                            u64 begin, u64 end, const RestoreMapping* mapping) {
  ExecutionResult& r = pending_;
  // Anonymous zero-fill and DAX device mappings take a minor fault only.
  const bool demand_paged = mapping != nullptr && !mapping->dax;
  const bool writes = b.write_fraction > 0.0;
  // Copy-on-write duplicates the page within its tier. fault_ns is a double
  // and this addend is not integral, so it is added once per page in access
  // order, exactly as a per-page walk would.
  const Nanos cow_ns =
      writes ? cfg_->vmm.minor_fault_ns +
                   static_cast<double>(kPageSize) /
                       cfg_->tier(mapping != nullptr ? mapping->tier
                                                     : tier_index(0))
                           .write_bw_bytes_per_ns
             : 0.0;
  for (u64 g = begin; g < end; ++g) {
    if (counts[g - b.page_begin] == 0) continue;
    if (!resident_.test(g)) {
      if (demand_paged) {
        r.fault_ns += demand_fault_ns(*mapping, g, b.pattern);
      } else {
        ++r.minor_faults;
        r.fault_ns += cfg_->vmm.minor_fault_ns;
      }
      resident_.set(g);
      ++r.touched_pages;
    }
    if (writes && !written_.test(g)) {
      r.fault_ns += cow_ns;
      written_.set(g);
      ++r.cow_faults;
    }
  }
}

ExecutionResult MicroVm::execute(const BurstTrace& trace, Nanos cpu_ns,
                                 Nanos profiling_overhead_ns) {
  // Guest crash mid-invocation (before any snapshot is taken): the whole
  // attempt is lost and the recovery ladder re-restores and re-executes.
  if (FaultInjector* faults = store_->faults();
      faults != nullptr && faults->should_fire(FaultSite::kExecCrash))
    throw Error(ErrorCode::kExecutionCrashed,
                "guest crashed mid-invocation");
  pending_ = ExecutionResult{};
  ExecutionResult& r = pending_;
  r.cpu_ns = cpu_ns;
  r.profiling_overhead_ns = profiling_overhead_ns;
  ZipfWeights& memo = store_->zipf_weights();

  const u64 n = memory_.num_pages();
  const size_t ranks = cfg_->tier_count();
  for (size_t bi = 0; bi < trace.size(); ++bi) {
    const AccessBurst& b = trace.bursts()[bi];
    TOSS_REQUIRE(b.page_end() <= n);
    (void)n;
    const BurstCounts counts = trace.counts(bi, memo);

    // Walk the burst in page order as segments: its overlap with each
    // mapping, and the anonymous (rank-0) gaps between mappings. Accesses
    // are summed per rank in u64, exact in any order.
    std::array<u64, kMaxTiers> accesses{};
    auto m = std::upper_bound(
        mappings_.begin(), mappings_.end(), b.page_begin,
        [](u64 page, const RestoreMapping& x) {
          return page < x.guest_page + x.page_count;
        });
    for (u64 page = b.page_begin; page < b.page_end();) {
      const bool mapped = m != mappings_.end() && m->guest_page <= page;
      const u64 limit = m == mappings_.end() ? b.page_end()
                        : mapped            ? m->guest_page + m->page_count
                                            : m->guest_page;
      const u64 end = std::min(limit, b.page_end());
      touch_segment(b, counts, page, end, mapped ? &*m : nullptr);
      const size_t rank = mapped ? tier_rank(m->tier) : 0;
      TOSS_ASSERT(rank < ranks, "placement rank outside the ladder");
      accesses[rank] += counts.sum(page - b.page_begin, end - b.page_begin);
      if (mapped && end == limit) ++m;
      page = end;
    }
    for (size_t rank = 0; rank < kMaxTiers; ++rank) {
      if (rank != 0) r.slow_accesses += accesses[rank];
      r.total_accesses += accesses[rank];
    }

    const BurstCost bc = cost_model_.cost_of_accesses(b, accesses);
    for (size_t rank = 0; rank < ranks; ++rank) {
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

u64 MicroVm::take_snapshot() {
  return store_->put_single_tier(memory_, vm_state_);
}

}  // namespace toss
