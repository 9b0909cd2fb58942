// Tests for src/mem: the tier ladder, placement, the burst cost model and
// the host page cache, plus the per-rank contention pools the ladder feeds.
#include <gtest/gtest.h>

#include <set>
#include <utility>

#include "mem/access_cost.hpp"
#include "mem/page_cache.hpp"
#include "mem/placement.hpp"
#include "mem/tier.hpp"
#include "platform/concurrency.hpp"
#include "util/rng.hpp"

namespace toss {
namespace {

/// A burst's counts from a fresh memo, as a lane's first use of a theta.
std::vector<u64> expand(const AccessBurst& b) {
  ZipfWeights memo;
  return expand_burst_counts(b, memo);
}

TEST(TierSpec, PaperDefaults) {
  const SystemConfig cfg = SystemConfig::paper_default();
  EXPECT_EQ(cfg.tier_count(), 2u);
  EXPECT_NEAR(cfg.cost_ratio(), 2.5, 1e-9);
  EXPECT_GT(cfg.tiers[1].read_latency_ns, cfg.tiers[0].read_latency_ns);
  EXPECT_LT(cfg.tiers[1].read_bw_bytes_per_ns, cfg.tiers[0].read_bw_bytes_per_ns);
  EXPECT_LT(cfg.tiers[1].write_bw_bytes_per_ns, cfg.tiers[1].read_bw_bytes_per_ns);
  EXPECT_GT(cfg.tiers[1].random_granularity_bytes,
            cfg.tiers[0].random_granularity_bytes);
  EXPECT_EQ(cfg.cores, 20);
}

TEST(TierSpec, LadderPresetsAreOrdered) {
  // Every preset must be a proper ladder: each rung slower (latency) and
  // cheaper ($/MiB) than the one above, so Eq-1's per-rank ratios are
  // monotone and the cost/slowdown frontier is well-defined.
  for (const SystemConfig& cfg :
       {SystemConfig::paper_default(), SystemConfig::cxl_host(),
        SystemConfig::nvme_host()}) {
    ASSERT_GE(cfg.tier_count(), 2u);
    ASSERT_LE(cfg.tier_count(), kMaxTiers);
    for (size_t r = 1; r < cfg.tier_count(); ++r) {
      EXPECT_GT(cfg.tiers[r].read_latency_ns, cfg.tiers[r - 1].read_latency_ns)
          << cfg.tiers[r].name;
      EXPECT_LT(cfg.tiers[r].cost_per_mib, cfg.tiers[r - 1].cost_per_mib)
          << cfg.tiers[r].name;
    }
    // rank_cost_ratios: ascending rank order, every ratio > 1, strictly
    // increasing (deeper is cheaper).
    const auto ratios = cfg.rank_cost_ratios();
    ASSERT_EQ(ratios.size(), cfg.tier_count() - 1);
    double prev = 1.0;
    for (double ratio : ratios) {
      EXPECT_GT(ratio, prev);
      prev = ratio;
    }
    EXPECT_DOUBLE_EQ(cfg.rank_cost_ratio(0), 1.0);
    EXPECT_EQ(tier_rank(cfg.deepest_tier()), cfg.tier_count() - 1);
    EXPECT_EQ(&cfg.fastest(), &cfg.tiers.front());
    EXPECT_EQ(&cfg.deepest(), &cfg.tiers.back());
  }
  EXPECT_EQ(SystemConfig::cxl_host().tier_count(), 3u);
  EXPECT_EQ(SystemConfig::nvme_host().tier_count(), 4u);
}

TEST(TierSpec, TierNamesFollowRank) {
  EXPECT_STREQ(tier_name(tier_index(0)), "fast");
  EXPECT_STREQ(tier_name(tier_index(1)), "slow");
  EXPECT_STREQ(tier_name(tier_index(2)), "tier2");
  EXPECT_STREQ(tier_name(tier_index(3)), "tier3");
  EXPECT_EQ(tier_rank(tier_index(4)), 4u);
}

#ifdef TOSS_CHECKED
TEST(TierSpecDeathTest, LookupOutsideLadderAborts) {
  const SystemConfig cfg = SystemConfig::paper_default();
  EXPECT_DEATH(cfg.tier(tier_index(2)), "outside the ladder");
  EXPECT_DEATH(cfg.rank_cost_ratio(5), "outside the ladder");
}
#endif  // TOSS_CHECKED

TEST(TierSpec, CxlHostIsGentlerSlowTier) {
  // Section III: TOSS works for any tier pair. The CXL-DDR4 rung has lower
  // latency, symmetric bandwidth and no random-access amplification
  // compared to Optane, so fully-offloaded slowdowns shrink.
  const SystemConfig pmem = SystemConfig::paper_default();
  const SystemConfig cxl = SystemConfig::cxl_host();
  EXPECT_LT(cxl.tiers[1].read_latency_ns, pmem.tiers[1].read_latency_ns);
  EXPECT_DOUBLE_EQ(cxl.tiers[1].read_bw_bytes_per_ns,
                   cxl.tiers[1].write_bw_bytes_per_ns);
  EXPECT_DOUBLE_EQ(cxl.tiers[1].random_granularity_bytes, kCacheLine);
  EXPECT_GT(cxl.cost_ratio(), 1.0);

  AccessCostModel pmem_model(pmem), cxl_model(cxl);
  const double pmem_penalty =
      pmem_model.access_cost(tier_index(1), Pattern::kRandom, 0.0) /
      pmem_model.access_cost(tier_index(0), Pattern::kRandom, 0.0);
  const double cxl_penalty =
      cxl_model.access_cost(tier_index(1), Pattern::kRandom, 0.0) /
      cxl_model.access_cost(tier_index(0), Pattern::kRandom, 0.0);
  EXPECT_LT(cxl_penalty, pmem_penalty);
}

TEST(Placement, DefaultsToFast) {
  PagePlacement p(100);
  EXPECT_EQ(p.pages_in(tier_index(0)), 100u);
  EXPECT_EQ(p.pages_in(tier_index(1)), 0u);
  EXPECT_DOUBLE_EQ(p.slow_fraction(), 0.0);
}

TEST(Placement, SetRangeAndCount) {
  PagePlacement p(100);
  p.set_range(10, 30, tier_index(1));
  EXPECT_EQ(p.pages_in(tier_index(1)), 30u);
  EXPECT_EQ(p.count_in_range(0, 100, tier_index(1)), 30u);
  EXPECT_EQ(p.count_in_range(0, 10, tier_index(1)), 0u);
  EXPECT_EQ(p.count_in_range(20, 10, tier_index(1)), 10u);
  EXPECT_DOUBLE_EQ(p.slow_fraction_in_range(10, 30), 1.0);
  EXPECT_DOUBLE_EQ(p.slow_fraction(), 0.3);
}

TEST(Placement, SetAllAndEquality) {
  PagePlacement a(16), b(16);
  a.set_all(tier_index(1));
  EXPECT_NE(a, b);
  b.set_all(tier_index(1));
  EXPECT_EQ(a, b);
  EXPECT_DOUBLE_EQ(a.slow_fraction(), 1.0);
}

TEST(Placement, PerRankCountsAndDeepFractions) {
  // A three-rung placement: 50 pages fast, 30 at rank 1, 20 at rank 2.
  PagePlacement p(100);
  p.set_range(50, 30, tier_index(1));
  p.set_range(80, 20, tier_index(2));
  const auto per_rank = p.pages_per_rank(3);
  ASSERT_EQ(per_rank.size(), 3u);
  EXPECT_EQ(per_rank[0], 50u);
  EXPECT_EQ(per_rank[1], 30u);
  EXPECT_EQ(per_rank[2], 20u);
  // slow_fraction still means "anything below the fastest rung".
  EXPECT_DOUBLE_EQ(p.slow_fraction(), 0.5);
  const auto fracs = p.deep_fractions(3);
  ASSERT_EQ(fracs.size(), 2u);
  EXPECT_DOUBLE_EQ(fracs[0], 0.3);
  EXPECT_DOUBLE_EQ(fracs[1], 0.2);
}

TEST(Placement, ApplyFloorDemotesShallowRanks) {
  PagePlacement p(10);
  p.set_range(0, 5, tier_index(1));
  p.apply_floor(1);  // no page may rest above rank 1
  EXPECT_EQ(p.pages_in(tier_index(0)), 0u);
  EXPECT_EQ(p.pages_in(tier_index(1)), 10u);
  // Pages already deeper than the floor stay put.
  p.set_range(0, 2, tier_index(2));
  p.apply_floor(1);
  EXPECT_EQ(p.pages_in(tier_index(2)), 2u);
  EXPECT_EQ(p.pages_in(tier_index(1)), 8u);
}

TEST(ExpandBurst, UniformSumsExactly) {
  AccessBurst b{0, 10, 1234, Pattern::kSequential, 0.0, 0.0};
  const auto counts = expand(b);
  ASSERT_EQ(counts.size(), 10u);
  u64 sum = 0;
  for (u64 c : counts) sum += c;
  EXPECT_EQ(sum, 1234u);
}

TEST(ExpandBurst, ZipfHotPrefix) {
  AccessBurst b{0, 100, 100000, Pattern::kRandom, 0.0, 1.0};
  const auto counts = expand(b);
  u64 sum = 0;
  for (u64 c : counts) sum += c;
  EXPECT_EQ(sum, 100000u);
  // Non-increasing by construction, first page hottest.
  for (size_t i = 1; i < counts.size(); ++i)
    EXPECT_GE(counts[i - 1], counts[i]);
  EXPECT_GT(counts[0], counts[99] * 10);
}

TEST(ExpandBurst, ZeroAccesses) {
  AccessBurst b{0, 4, 0, Pattern::kRandom, 0.0, 0.5};
  const auto counts = expand(b);
  for (u64 c : counts) EXPECT_EQ(c, 0u);
}

class AccessCostTest : public ::testing::Test {
 protected:
  SystemConfig cfg = SystemConfig::paper_default();
  AccessCostModel model{cfg};
};

TEST_F(AccessCostTest, SlowTierCostsMore) {
  for (auto pattern : {Pattern::kSequential, Pattern::kRandom}) {
    for (double wf : {0.0, 0.5, 1.0}) {
      EXPECT_GT(model.access_cost(tier_index(1), pattern, wf),
                model.access_cost(tier_index(0), pattern, wf))
          << pattern_name(pattern) << " wf=" << wf;
    }
  }
}

TEST_F(AccessCostTest, RandomCostsMoreThanSequential) {
  for (auto tier : {tier_index(0), tier_index(1)}) {
    EXPECT_GT(model.access_cost(tier, Pattern::kRandom, 0.0),
              model.access_cost(tier, Pattern::kSequential, 0.0));
  }
}

TEST(AccessCostLadder, DeeperRungsCostMoreEveryPreset) {
  // Each rung down must be strictly slower per access, for both patterns —
  // otherwise the Eq-1 sweep's monotone frontier assumption breaks.
  for (const SystemConfig& cfg :
       {SystemConfig::cxl_host(), SystemConfig::nvme_host()}) {
    AccessCostModel model(cfg);
    for (auto pattern : {Pattern::kSequential, Pattern::kRandom}) {
      for (size_t r = 1; r < cfg.tier_count(); ++r) {
        EXPECT_GT(model.access_cost(tier_index(r), pattern, 0.0),
                  model.access_cost(tier_index(r - 1), pattern, 0.0))
            << cfg.tiers[r].name << " " << pattern_name(pattern);
      }
    }
  }
}

TEST_F(AccessCostTest, BurstTimeUniformMatchesPlacement) {
  AccessBurst b{0, 64, 10000, Pattern::kRandom, 0.2, 0.7};
  const auto counts = expand(b);
  PagePlacement all_fast(64, tier_index(0));
  PagePlacement all_slow(64, tier_index(1));
  EXPECT_NEAR(model.burst_time(b, counts, all_fast),
              model.burst_time_uniform(b, tier_index(0)), 1e-6);
  EXPECT_NEAR(model.burst_time(b, counts, all_slow),
              model.burst_time_uniform(b, tier_index(1)), 1e-6);
}

TEST_F(AccessCostTest, MixedPlacementBetweenExtremes) {
  AccessBurst b{0, 64, 10000, Pattern::kRandom, 0.0, 0.5};
  const auto counts = expand(b);
  PagePlacement mixed(64, tier_index(0));
  mixed.set_range(32, 32, tier_index(1));
  const Nanos fast = model.burst_time_uniform(b, tier_index(0));
  const Nanos slow = model.burst_time_uniform(b, tier_index(1));
  const Nanos mid = model.burst_time(b, counts, mixed);
  EXPECT_GT(mid, fast);
  EXPECT_LT(mid, slow);
}

TEST_F(AccessCostTest, OffloadingColdHalfCheaperThanHotHalf) {
  // Hot prefix: offloading the *tail* must cost less than the head.
  AccessBurst b{0, 64, 100000, Pattern::kRandom, 0.0, 1.2};
  const auto counts = expand(b);
  PagePlacement cold_off(64, tier_index(0)), hot_off(64, tier_index(0));
  cold_off.set_range(32, 32, tier_index(1));
  hot_off.set_range(0, 32, tier_index(1));
  EXPECT_LT(model.burst_time(b, counts, cold_off),
            model.burst_time(b, counts, hot_off));
}

TEST_F(AccessCostTest, DemandBytesSplitByWriteFraction) {
  AccessBurst b{0, 16, 1000, Pattern::kSequential, 0.25, 0.0};
  const auto counts = expand(b);
  PagePlacement all_slow(16, tier_index(1));
  const BurstCost c = model.burst_cost(b, counts, all_slow);
  EXPECT_DOUBLE_EQ(c.tier_read_bytes[0], 0.0);
  EXPECT_NEAR(c.tier_write_bytes[1] /
                  (c.tier_read_bytes[1] + c.tier_write_bytes[1]),
              0.25, 1e-9);
  // Sequential: demand = accesses * cache line.
  EXPECT_NEAR(c.tier_read_bytes[1] + c.tier_write_bytes[1],
              1000.0 * kCacheLine, 1e-6);
}

TEST_F(AccessCostTest, RandomDemandAmplifiedOnSlowTier) {
  AccessBurst b{0, 16, 1000, Pattern::kRandom, 0.0, 0.0};
  const auto counts = expand(b);
  PagePlacement slow(16, tier_index(1)), fast(16, tier_index(0));
  const BurstCost cs = model.burst_cost(b, counts, slow);
  const BurstCost cf = model.burst_cost(b, counts, fast);
  EXPECT_NEAR(cs.tier_read_bytes[1],
              1000.0 * cfg.tiers[1].random_granularity_bytes, 1e-6);
  EXPECT_NEAR(cf.tier_read_bytes[0],
              1000.0 * cfg.tiers[0].random_granularity_bytes, 1e-6);
}

TEST(AccessCostLadder, BurstCostChargesTheResidentRank) {
  // On a three-rung host a burst whose pages all sit at rank 2 must charge
  // time and device demand to rank 2 only — the pools are per rung, not a
  // fast/slow pair.
  const SystemConfig cfg = SystemConfig::cxl_host();
  AccessCostModel model(cfg);
  AccessBurst b{0, 32, 5000, Pattern::kRandom, 0.0, 0.0};
  const auto counts = expand(b);
  PagePlacement deep(32, tier_index(2));
  const BurstCost c = model.burst_cost(b, counts, deep);
  EXPECT_GT(c.tier_ns[2], 0);
  EXPECT_GT(c.tier_read_bytes[2], 0.0);
  EXPECT_EQ(c.tier_ns[0], 0);
  EXPECT_EQ(c.tier_ns[1], 0);
  EXPECT_DOUBLE_EQ(c.tier_read_bytes[0], 0.0);
  EXPECT_DOUBLE_EQ(c.tier_read_bytes[1], 0.0);
  EXPECT_EQ(c.total_ns(), c.tier_ns[2]);
}

// ---------------------------------------------------------------------------
// Per-tier contention pools: run_concurrent keeps one bandwidth pool per
// ladder rank, so pressure on one rung must not slow traffic on another.
// ---------------------------------------------------------------------------

class ContentionLadderTest : public ::testing::Test {
 protected:
  SystemConfig cfg = SystemConfig::cxl_host();  // 3 rungs

  // A memory-bound solo run whose demand lands entirely on `rank`.
  ExecutionResult bound_to_rank(size_t rank, double gb, Nanos exec) {
    ExecutionResult r;
    r.exec_ns = exec;
    r.cpu_ns = exec * 0.2;
    r.mem_tier_ns[rank] = exec * 0.8;
    r.mem_ns = r.mem_tier_ns[rank];
    r.tier_read_bytes[rank] = gb * 1e9;
    return r;
  }
};

TEST_F(ContentionLadderTest, PoolsAreIndependentPerRung) {
  // 20 invocations hammering rank 2 saturate only rank 2's pool.
  std::vector<ExecutionResult> solo(20, bound_to_rank(2, 40.0, ms(100)));
  const auto out = run_concurrent(cfg, solo);
  EXPECT_GT(out.factors.tier[2], 1.5);
  EXPECT_DOUBLE_EQ(out.factors.tier[0], 1.0);
  EXPECT_DOUBLE_EQ(out.factors.tier[1], 1.0);
  EXPECT_GT(out.exec_ns[0], ms(100));
}

TEST_F(ContentionLadderTest, MixedRungLoadContendsSeparately) {
  // Half the fleet on rank 1, half on rank 2: each pool sees only its own
  // demand, so both factors exceed 1 and the rank-1 factor stays close to
  // what the same rank-1 load produces alone.
  std::vector<ExecutionResult> solo;
  for (int i = 0; i < 10; ++i) solo.push_back(bound_to_rank(1, 40.0, ms(100)));
  for (int i = 0; i < 10; ++i) solo.push_back(bound_to_rank(2, 40.0, ms(100)));
  const auto mixed = run_concurrent(cfg, solo);
  EXPECT_GT(mixed.factors.tier[1], 1.0);
  EXPECT_GT(mixed.factors.tier[2], 1.0);

  std::vector<ExecutionResult> rank1_only(10, bound_to_rank(1, 40.0, ms(100)));
  const auto solo1 = run_concurrent(cfg, rank1_only);
  EXPECT_NEAR(solo1.factors.tier[1], mixed.factors.tier[1],
              mixed.factors.tier[1] * 0.25);
  EXPECT_DOUBLE_EQ(solo1.factors.tier[2], 1.0);
}

TEST(PageCache, FillWithReadahead) {
  HostPageCache cache(8);
  EXPECT_FALSE(cache.contains(1, 100));
  cache.fill(1, 100);
  for (u64 p = 100; p < 108; ++p) EXPECT_TRUE(cache.contains(1, p));
  EXPECT_FALSE(cache.contains(1, 108));
  EXPECT_FALSE(cache.contains(2, 100));  // other file unaffected
}

TEST(PageCache, FillOneNoReadahead) {
  HostPageCache cache(32);
  cache.fill_one(1, 50);
  EXPECT_TRUE(cache.contains(1, 50));
  EXPECT_FALSE(cache.contains(1, 51));
}

TEST(PageCache, FillReturnsNewlyCached) {
  HostPageCache cache(4);
  EXPECT_EQ(cache.fill(1, 0), 4u);
  EXPECT_EQ(cache.fill(1, 2), 2u);  // 2,3 already cached
}

TEST(PageCache, DropClearsEverything) {
  HostPageCache cache(4);
  cache.fill_range(1, 0, 100);
  EXPECT_EQ(cache.cached_pages(), 100u);
  cache.drop();
  EXPECT_EQ(cache.cached_pages(), 0u);
  EXPECT_FALSE(cache.contains(1, 0));
}

TEST(PageCache, AgreesWithASetReference) {
  // Differential test: random fill / fill_one / fill_range / drop /
  // contains sequences against an ordered set of (file, page) pairs, over
  // several files whose readahead windows overlap and cross word edges.
  Rng rng(20251017);
  for (const u64 readahead : {u64{1}, u64{7}, u64{32}, u64{100}}) {
    HostPageCache cache(readahead);
    std::set<std::pair<u64, u64>> ref;
    const auto ref_fill = [&](u64 file, u64 begin, u64 count) {
      u64 added = 0;
      for (u64 p = begin; p < begin + count; ++p)
        added += ref.emplace(file, p).second ? 1 : 0;
      return added;
    };
    for (int op = 0; op < 4000; ++op) {
      const u64 file = 1 + rng.next_below(4);
      const u64 page = rng.next_below(600);
      switch (rng.next_below(10)) {
        case 0: case 1: case 2:
          ASSERT_EQ(cache.fill(file, page), ref_fill(file, page, readahead))
              << "op " << op;
          break;
        case 3:
          cache.fill_one(file, page);
          ref_fill(file, page, 1);
          break;
        case 4: {
          const u64 count = rng.next_below(200);
          cache.fill_range(file, page, count);
          ref_fill(file, page, count);
          break;
        }
        case 5:
          if (rng.next_below(20) == 0) {
            cache.drop();
            ref.clear();
          }
          break;
        default:
          ASSERT_EQ(cache.contains(file, page), ref.count({file, page}) > 0)
              << "op " << op;
      }
      ASSERT_EQ(cache.cached_pages(), ref.size()) << "op " << op;
    }
    // Full sweep: every page of every file agrees at the end.
    for (u64 file = 0; file <= 5; ++file)
      for (u64 p = 0; p < 1000; ++p)
        ASSERT_EQ(cache.contains(file, p), ref.count({file, p}) > 0)
            << file << ":" << p;
  }
}

}  // namespace
}  // namespace toss
