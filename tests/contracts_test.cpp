// Contracts + validators: validate_layout()/validate_bins() must reject
// deliberately corrupted inputs with a diagnostic, and the contract macros
// must abort in checked builds and be inert otherwise. Death tests arm only
// when TOSS_CHECKED is on (the same binary compiles in both modes; the
// ifdef'd halves prove unchecked behavior is unchanged).
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "core/binpack.hpp"
#include "util/contracts.hpp"
#include "vmm/microvm.hpp"
#include "vmm/tiered_snapshot.hpp"

namespace toss {
namespace {

// ---------------------------------------------------------------------------
// validate_layout
// ---------------------------------------------------------------------------

MemoryLayoutFile good_layout() {
  // 100 guest pages: [0,40) fast, [40,90) slow, [90,100) fast.
  std::vector<LayoutEntry> entries{
      {tier_index(0), 0, 0, 40},
      {tier_index(1), 0, 40, 50},
      {tier_index(0), 40, 90, 10},
  };
  return MemoryLayoutFile(100, std::move(entries));
}

TEST(ValidateLayout, AcceptsWellFormedLayout) {
  EXPECT_EQ(validate_layout(good_layout()), std::nullopt);
  EXPECT_TRUE(good_layout().valid());
}

TEST(ValidateLayout, RejectsOverlappingRegions) {
  // Second entry starts inside the first.
  std::vector<LayoutEntry> entries{
      {tier_index(0), 0, 0, 40},
      {tier_index(1), 0, 30, 70},
  };
  const MemoryLayoutFile bad(100, std::move(entries));
  const auto err = validate_layout(bad);
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("overlaps"), std::string::npos) << *err;
  EXPECT_FALSE(bad.valid());
}

TEST(ValidateLayout, RejectsGaps) {
  std::vector<LayoutEntry> entries{
      {tier_index(0), 0, 0, 40},
      {tier_index(1), 0, 50, 50},
  };
  const auto err = validate_layout(MemoryLayoutFile(100, std::move(entries)));
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("gap"), std::string::npos) << *err;
}

TEST(ValidateLayout, RejectsEmptyRegions) {
  std::vector<LayoutEntry> entries{
      {tier_index(0), 0, 0, 100},
      {tier_index(1), 0, 100, 0},
  };
  const auto err = validate_layout(MemoryLayoutFile(100, std::move(entries)));
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("empty"), std::string::npos) << *err;
}

TEST(ValidateLayout, RejectsNonContiguousTierFileOffsets) {
  // Fast tier file offsets must be 0 then 40, not 0 then 50.
  std::vector<LayoutEntry> entries{
      {tier_index(0), 0, 0, 40},
      {tier_index(1), 0, 40, 50},
      {tier_index(0), 50, 90, 10},
  };
  const auto err = validate_layout(MemoryLayoutFile(100, std::move(entries)));
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("not contiguous"), std::string::npos) << *err;
}

TEST(ValidateLayout, RejectsWrongTotalSize) {
  std::vector<LayoutEntry> entries{{tier_index(0), 0, 0, 90}};
  const auto err = validate_layout(MemoryLayoutFile(100, std::move(entries)));
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("sum to"), std::string::npos) << *err;
}

TEST(ValidateLayout, DeserializeRejectsCorruptedLayout) {
  // Serialize a good layout, then corrupt an entry's page count so regions
  // overlap; deserialize must refuse it.
  std::vector<u8> bytes = good_layout().serialize();
  // Layout wire format: magic, guest_pages, count, then 4 u64 per entry
  // (tier, file_page, guest_page, page_count). Bump entry 0's page_count.
  const size_t entry0_page_count = (3 + 3) * 8;
  bytes[entry0_page_count] = 200;
  EXPECT_EQ(MemoryLayoutFile::deserialize(bytes), std::nullopt);
}

// ---------------------------------------------------------------------------
// validate_bins
// ---------------------------------------------------------------------------

RegionList sample_regions() {
  return RegionList{
      {0, 64, 3},    // 64 pages x 3 accesses/page
      {100, 16, 40}, // hot
      {200, 512, 1}, // cold bulk
      {800, 8, 90},  // hottest
  };
}

TEST(ValidateBins, AcceptsAllPackers) {
  const RegionList regions = sample_regions();
  for (int bins : {1, 4, 10}) {
    EXPECT_EQ(validate_bins(pack_equal_access(regions, bins), regions),
              std::nullopt);
    EXPECT_EQ(validate_bins(pack_equal_access_greedy(regions, bins), regions),
              std::nullopt);
    EXPECT_EQ(validate_bins(pack_equal_size(regions, bins), regions),
              std::nullopt);
  }
}

TEST(ValidateBins, RejectsCorruptedBinCache) {
  const RegionList regions = sample_regions();
  std::vector<Bin> bins = pack_equal_access(regions, 4);
  bins[1].access_mass += 1;  // cached mass no longer matches its regions
  const auto err = validate_bins(bins, regions);
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("bin 1"), std::string::npos) << *err;
}

TEST(ValidateBins, RejectsDroppedRegion) {
  const RegionList regions = sample_regions();
  std::vector<Bin> bins = pack_equal_access(regions, 4);
  for (Bin& b : bins) {
    if (b.regions.empty()) continue;
    b.pages -= b.regions.back().page_count;
    b.access_mass -= b.regions.back().total_accesses();
    b.regions.pop_back();
    break;
  }
  const auto err = validate_bins(bins, regions);
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("not conserved"), std::string::npos) << *err;
}

TEST(ValidateBins, RejectsDuplicatedMass) {
  const RegionList regions = sample_regions();
  std::vector<Bin> bins = pack_equal_access(regions, 4);
  Bin& b = bins[0];
  b.regions.push_back(b.regions.empty() ? Region{900, 4, 2} : b.regions[0]);
  b.pages += b.regions.back().page_count;
  b.access_mass += b.regions.back().total_accesses();
  EXPECT_TRUE(validate_bins(bins, regions).has_value());
}

// ---------------------------------------------------------------------------
// Contract macros: checked builds abort, unchecked builds are inert.
// ---------------------------------------------------------------------------

MemoryLayoutFile overlapping_layout() {
  std::vector<LayoutEntry> entries{
      {tier_index(0), 0, 0, 60},
      {tier_index(1), 0, 30, 70},
  };
  return MemoryLayoutFile(100, std::move(entries));
}

#ifdef TOSS_CHECKED

using ContractsDeathTest = ::testing::Test;

TEST(ContractsDeathTest, AssertAbortsWithDiagnostic) {
  EXPECT_DEATH(TOSS_ASSERT(1 == 2, "math broke"),
               "invariant failed: 1 == 2 \\(math broke\\)");
}

TEST(ContractsDeathTest, ValidateAbortsOnOverlappingLayout) {
  const MemoryLayoutFile bad = overlapping_layout();
  EXPECT_DEATH(TOSS_VALIDATE(validate_layout(bad)), "overlaps");
}

TEST(ContractsDeathTest, ValidateAbortsOnUnconservedBins) {
  const RegionList regions = sample_regions();
  std::vector<Bin> bins = pack_equal_access(regions, 4);
  bins[2].access_mass += 5;
  EXPECT_DEATH(TOSS_VALIDATE(validate_bins(bins, regions)), "bin 2");
}

TEST(ContractsDeathTest, RestoreAbortsOnOverlappingMappings) {
  const SystemConfig cfg = SystemConfig::paper_default();
  SnapshotStore store(cfg);
  MicroVm vm(cfg, store);
  RestorePlan plan;
  plan.guest_pages = 64;
  plan.mappings.push_back(RestoreMapping{0, 40, tier_index(0), 0, 0, false});
  plan.mappings.push_back(RestoreMapping{32, 32, tier_index(0), 0, 0, false});
  EXPECT_DEATH(vm.restore(plan), "sorted by guest_page and disjoint");
}

TEST(Contracts, EnabledReportsChecked) {
  EXPECT_TRUE(detail::contracts_enabled());
}

#else  // !TOSS_CHECKED

TEST(Contracts, MacrosAreInertWhenUnchecked) {
  // Same expressions as the checked-build death tests: nothing may abort,
  // and the condition must not even be evaluated.
  int evaluations = 0;
  const auto count = [&] {
    ++evaluations;
    return false;
  };
  TOSS_ASSERT(count(), "never evaluated");
  TOSS_REQUIRE(count());
  TOSS_ENSURE(count());
  TOSS_VALIDATE(validate_layout(overlapping_layout()));
  EXPECT_EQ(evaluations, 0);
  EXPECT_FALSE(detail::contracts_enabled());
}

TEST(Contracts, UncheckedBehaviorUnchanged) {
  // Release-unchecked semantics: a malformed layout is still *reported* by
  // the validator (it just doesn't abort), and valid() still returns false.
  const MemoryLayoutFile bad = overlapping_layout();
  EXPECT_TRUE(validate_layout(bad).has_value());
  EXPECT_FALSE(bad.valid());
}

#endif  // TOSS_CHECKED

// ---------------------------------------------------------------------------
// Step IV seam: TieredSnapshot::build still produces a valid layout (the
// checked-build TOSS_VALIDATE at that seam passes), in both modes.
// ---------------------------------------------------------------------------

TEST(StepIvSeam, BuildProducesValidatedLayout) {
  constexpr u64 kPages = 64;
  const SingleTierSnapshot snap(7, GuestMemory(bytes_for_pages(kPages)),
                                VmState{});
  PagePlacement placement(kPages);
  placement.set_range(16, 32, tier_index(1));
  const TieredSnapshot tiered = TieredSnapshot::build(snap, placement, {1, 2});
  EXPECT_EQ(validate_layout(tiered.layout()), std::nullopt);
  EXPECT_EQ(tiered.layout().pages_in(tier_index(1)), 32u);
}

}  // namespace
}  // namespace toss
