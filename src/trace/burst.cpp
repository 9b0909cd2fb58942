#include "trace/burst.hpp"

#include <algorithm>

#include "trace/pattern.hpp"
#include "util/contracts.hpp"

namespace toss {

BurstTrace::BurstTrace(std::vector<AccessBurst> bursts)
    : bursts_(std::move(bursts)), expansions_(bursts_.size()) {}

void BurstTrace::push_back(AccessBurst b) {
  bursts_.push_back(b);
  expansions_.emplace_back();
}

u64 BurstTrace::total_accesses() const {
  u64 total = 0;
  for (const auto& b : bursts_) total += b.accesses;
  return total;
}

u64 BurstTrace::max_page_end() const {
  u64 end = 0;
  for (const auto& b : bursts_) end = std::max(end, b.page_end());
  return end;
}

u64 BurstTrace::footprint_pages(u64 num_guest_pages) const {
  std::vector<bool> touched(num_guest_pages, false);
  u64 n = 0;
  for (const auto& b : bursts_) {
    TOSS_REQUIRE(b.page_end() <= num_guest_pages);
    for (u64 p = b.page_begin; p < b.page_end(); ++p) {
      if (!touched[p]) {
        touched[p] = true;
        ++n;
      }
    }
  }
  return n;
}

BurstCounts BurstTrace::counts(size_t i, ZipfWeights& memo) const {
  TOSS_REQUIRE(i < bursts_.size());
  const AccessBurst& b = bursts_[i];
  if (b.zipf_theta <= 1e-9) return BurstCounts::uniform(b);
  if (expansions_[i].empty() && b.page_count > 0)
    expansions_[i] = expand_burst_counts(b, memo);
  return expansions_[i];
}

void BurstTrace::accumulate_counts(PageAccessCounts& out) const {
  // A per-call memo: expansions are cached on the trace, so a trace pays
  // for its weights only on its first use (here or in MicroVm::execute).
  ZipfWeights memo;
  for (size_t i = 0; i < bursts_.size(); ++i) {
    const auto& b = bursts_[i];
    const BurstCounts counts = this->counts(i, memo);
    for (u64 j = 0; j < b.page_count; ++j)
      if (counts[j] > 0) out.add(b.page_begin + j, counts[j]);
  }
}

Nanos BurstTrace::time_under(const AccessCostModel& model,
                             const PagePlacement& placement) const {
  ZipfWeights memo;  // per call, as in accumulate_counts
  Nanos total = 0;
  for (size_t i = 0; i < bursts_.size(); ++i)
    total += model.burst_time(bursts_[i], counts(i, memo), placement);
  return total;
}

Nanos BurstTrace::time_uniform(const AccessCostModel& model, Tier t) const {
  return model.trace_time_uniform(bursts_, t);
}

}  // namespace toss
