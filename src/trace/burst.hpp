// BurstTrace: an invocation's memory activity as an ordered list of access
// bursts, with lazily cached per-page expansions of its skewed bursts for
// timing and profiling.
#pragma once

#include <vector>

#include "mem/access_cost.hpp"

namespace toss {

class PageAccessCounts;

class BurstTrace {
 public:
  BurstTrace() = default;
  explicit BurstTrace(std::vector<AccessBurst> bursts);

  const std::vector<AccessBurst>& bursts() const { return bursts_; }
  bool empty() const { return bursts_.empty(); }
  size_t size() const { return bursts_.size(); }

  void push_back(AccessBurst b);

  /// Total LLC-missing accesses in the trace.
  u64 total_accesses() const;

  /// Number of distinct guest pages touched (union of burst ranges).
  u64 footprint_pages(u64 num_guest_pages) const;

  /// Highest page index touched, +1 (0 for an empty trace).
  u64 max_page_end() const;

  /// Per-page access counts of burst `i`. A uniform burst's are a closed
  /// form; a skewed burst is expanded with `memo`'s weights on first use
  /// and cached here.
  BurstCounts counts(size_t i, ZipfWeights& memo) const;

  /// Accumulate this trace's per-page counts into `out` (out must cover the
  /// guest; see PageAccessCounts::accumulate).
  void accumulate_counts(PageAccessCounts& out) const;

  /// Memory time of the whole trace under a placement.
  Nanos time_under(const AccessCostModel& model,
                   const PagePlacement& placement) const;

  /// Memory time with all pages in one tier.
  Nanos time_uniform(const AccessCostModel& model, Tier t) const;

 private:
  std::vector<AccessBurst> bursts_;
  /// Parallel to bursts_; filled only for skewed (Zipf) bursts.
  mutable std::vector<std::vector<u64>> expansions_;
};

}  // namespace toss
