#include "mem/access_cost.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <numeric>

#include "util/contracts.hpp"

namespace toss {

const std::vector<double>& ZipfWeights::weights(double theta, u64 n) {
  auto it = std::find_if(by_theta_.begin(), by_theta_.end(),
                         [&](const auto& e) { return e.first == theta; });
  if (it == by_theta_.end()) {
    by_theta_.emplace_back(theta, std::vector<double>{});
    it = std::prev(by_theta_.end());
  }
  std::vector<double>& w = it->second;
  for (u64 i = w.size(); i < n; ++i)
    w.push_back(1.0 / std::pow(static_cast<double>(i + 1), theta));
  return w;
}

std::vector<u64> expand_burst_counts(const AccessBurst& burst,
                                     ZipfWeights& memo) {
  TOSS_REQUIRE(burst.page_count > 0);
  std::vector<u64> counts(burst.page_count, 0);
  if (burst.accesses == 0) return counts;
  if (burst.zipf_theta <= 1e-9) {
    // Uniform spread with the remainder going to the leading pages.
    const BurstCounts uniform = BurstCounts::uniform(burst);
    for (u64 i = 0; i < burst.page_count; ++i) counts[i] = uniform[i];
    return counts;
  }
  // Zipf weights by page index (page 0 hottest). Normalize to the total
  // access count; rounding drift is folded into page 0. z is summed in
  // index order, so it does not depend on how long the memo has grown.
  const std::vector<double>& w = memo.weights(burst.zipf_theta,
                                              burst.page_count);
  double z = 0.0;
  for (u64 i = 0; i < burst.page_count; ++i) z += w[i];
  u64 assigned = 0;
  for (u64 i = 0; i < burst.page_count; ++i) {
    counts[i] = static_cast<u64>(
        static_cast<double>(burst.accesses) * w[i] / z);
    assigned += counts[i];
  }
  counts[0] += burst.accesses - assigned;
  return counts;
}

BurstCounts BurstCounts::uniform(const AccessBurst& b) {
  TOSS_REQUIRE(b.zipf_theta <= 1e-9);
  BurstCounts c;
  c.size_ = b.page_count;
  if (b.page_count == 0) return c;
  c.base_ = b.accesses / b.page_count;
  c.rem_ = b.accesses % b.page_count;
  return c;
}

u64 BurstCounts::sum(u64 begin, u64 end) const {
  TOSS_REQUIRE(begin <= end && end <= size_);
  if (expanded_ != nullptr)
    return std::accumulate(expanded_ + begin, expanded_ + end, u64{0});
  const u64 extra = std::min(end, rem_) - std::min(begin, rem_);
  return base_ * (end - begin) + extra;
}

Nanos AccessCostModel::access_cost(Tier t, Pattern pattern,
                                   double write_fraction) const {
  const TierSpec& spec = cfg_->tier(t);
  const double wf = write_fraction;
  if (pattern == Pattern::kSequential) {
    const Nanos read = static_cast<double>(kCacheLine) / spec.read_bw_bytes_per_ns;
    const Nanos write = static_cast<double>(kCacheLine) / spec.write_bw_bytes_per_ns;
    return (1.0 - wf) * read + wf * write;
  }
  const Nanos read = spec.read_latency_ns / spec.mlp;
  const Nanos write = spec.write_latency_ns / spec.mlp;
  return (1.0 - wf) * read + wf * write;
}

Nanos AccessCostModel::burst_time_uniform(const AccessBurst& b, Tier t) const {
  return static_cast<double>(b.accesses) *
         access_cost(t, b.pattern, b.write_fraction);
}

Nanos AccessCostModel::burst_time(const AccessBurst& b, BurstCounts counts,
                                  const PagePlacement& placement) const {
  return burst_cost(b, counts, placement).total_ns();
}

BurstCost AccessCostModel::burst_cost(const AccessBurst& b,
                                      BurstCounts counts,
                                      const PagePlacement& placement) const {
  TOSS_REQUIRE(counts.size() == b.page_count);
  TOSS_REQUIRE(b.page_end() <= placement.num_pages());
  std::array<u64, kMaxTiers> accesses{};
  for (u64 i = 0; i < b.page_count; ++i) {
    const size_t rank = placement.rank_of(b.page_begin + i);
    TOSS_ASSERT(rank < cfg_->tier_count(), "placement rank outside the ladder");
    accesses[rank] += counts[i];
  }
  return cost_of_accesses(b, accesses);
}

BurstCost AccessCostModel::cost_of_accesses(
    const AccessBurst& b, const std::array<u64, kMaxTiers>& accesses) const {
  BurstCost cost;
  for (size_t rank = 0; rank < cfg_->tier_count(); ++rank) {
    cost.tier_ns[rank] =
        static_cast<double>(accesses[rank]) *
        access_cost(tier_index(rank), b.pattern, b.write_fraction);
    // Device bandwidth demand: sequential streams move cache lines; random
    // streams move the tier's internal access granularity per miss.
    const TierSpec& spec = cfg_->tiers[rank];
    const double unit = b.pattern == Pattern::kSequential
                            ? static_cast<double>(kCacheLine)
                            : spec.random_granularity_bytes;
    const double bytes = static_cast<double>(accesses[rank]) * unit;
    cost.tier_read_bytes[rank] = bytes * (1.0 - b.write_fraction);
    cost.tier_write_bytes[rank] = bytes * b.write_fraction;
  }
  return cost;
}

Nanos AccessCostModel::trace_time_uniform(const std::vector<AccessBurst>& trace,
                                          Tier t) const {
  Nanos total = 0;
  for (const auto& b : trace) total += burst_time_uniform(b, t);
  return total;
}

}  // namespace toss
