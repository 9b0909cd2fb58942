// Tests for the microVM substrate: snapshots, layout files, tiered
// snapshots, the snapshot store and the MicroVm fault/timing behaviour.
#include <gtest/gtest.h>

#include <initializer_list>
#include <vector>

#include "baseline/faasnap.hpp"
#include "baseline/reap.hpp"
#include "baseline/vanilla.hpp"
#include "core/tierer.hpp"
#include "vmm/layout.hpp"
#include "vmm/microvm.hpp"
#include "vmm/snapshot.hpp"
#include "vmm/snapshot_store.hpp"
#include "vmm/tiered_snapshot.hpp"
#include "vmm/vm_state.hpp"

namespace toss {
namespace {

GuestMemory patterned_memory(u64 pages) {
  GuestMemory mem(bytes_for_pages(pages));
  for (u64 p = 0; p < pages; ++p)
    mem.set_version(p, static_cast<u32>(p * 2654435761u));
  return mem;
}

/// Overwrite the little-endian u64 word at byte offset `pos`, to forge a
/// field of a serialized artifact.
void poke_u64_le(std::vector<u8>& bytes, size_t pos, u64 v) {
  for (size_t i = 0; i < 8; ++i) bytes[pos + i] = static_cast<u8>(v >> (8 * i));
}

/// Magics of the pre-ladder formats, which no reader accepts any more.
constexpr u64 kLayoutV2Magic = 0x544f53534c415932ULL;  // "TOSSLAY2"
constexpr u64 kTieredV1Magic = 0x544f535354495231ULL;  // "TOSSTIR1"

TEST(VmState, SerializeRoundtrip) {
  VmState s;
  s.vcpu_count = 2;
  s.config_hash = 0xdeadbeef;
  const auto back = VmState::deserialize(s.serialize());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, s);
}

TEST(VmState, DeserializeRejectsCorrupt) {
  auto bytes = VmState{}.serialize();
  bytes[3] ^= 0x55;
  EXPECT_FALSE(VmState::deserialize(bytes).has_value());
  EXPECT_FALSE(VmState::deserialize({}).has_value());
}

TEST(SingleTierSnapshot, MaterializeMatchesSource) {
  const GuestMemory mem = patterned_memory(64);
  SingleTierSnapshot snap(1, mem, VmState{});
  EXPECT_EQ(snap.num_pages(), 64u);
  EXPECT_EQ(snap.materialize(), mem);
}

TEST(SingleTierSnapshot, ContentHashIsTheMaterializedHash) {
  for (const u64 pages : {u64{1}, u64{17}, u64{64}, u64{1000}}) {
    const GuestMemory mem = patterned_memory(pages);
    const SingleTierSnapshot snap(7, mem, VmState{});
    EXPECT_EQ(snap.content_hash(), hash_memory(snap.materialize())) << pages;
    EXPECT_EQ(snap.content_hash(), hash_memory(mem)) << pages;
    EXPECT_EQ(hash_versions(mem.versions()), hash_memory(mem)) << pages;
  }
  // A zero image and an empty snapshot hash like their materializations.
  const SingleTierSnapshot zero(1, GuestMemory(bytes_for_pages(64)), VmState{});
  EXPECT_EQ(zero.content_hash(), hash_memory(zero.materialize()));
  EXPECT_EQ(SingleTierSnapshot().content_hash(),
            hash_memory(SingleTierSnapshot().materialize()));
  // One page's version moves the hash.
  GuestMemory bumped = patterned_memory(64);
  bumped.bump_version(63);
  EXPECT_NE(SingleTierSnapshot(2, bumped, VmState{}).content_hash(),
            hash_memory(patterned_memory(64)));
}

TEST(SnapshotStore, PutSingleTierMemoizesTheContentHash) {
  const SystemConfig cfg = SystemConfig::paper_default();
  SnapshotStore store(cfg);
  const GuestMemory mem = patterned_memory(48);
  const u64 id = store.put_single_tier(mem, VmState{});
  const SingleTierSnapshot& snap = store.fetch_single_tier(id);
  EXPECT_EQ(snap.content_hash(), hash_memory(mem));
  EXPECT_EQ(snap.content_hash(), hash_memory(snap.materialize()));
}

TEST(LayoutFile, ValidityRules) {
  // Valid: fast at 0..3, slow at 4..7, fast continues at 8..9.
  MemoryLayoutFile ok(10, {{tier_index(0), 0, 0, 4},
                           {tier_index(1), 0, 4, 4},
                           {tier_index(0), 4, 8, 2}});
  EXPECT_TRUE(ok.valid());
  EXPECT_EQ(ok.entries_in(tier_index(0)), 2u);
  EXPECT_EQ(ok.pages_in(tier_index(1)), 4u);
  EXPECT_DOUBLE_EQ(ok.slow_fraction(), 0.4);

  // Guest gap.
  EXPECT_FALSE(MemoryLayoutFile(10, {{tier_index(0), 0, 0, 4},
                                     {tier_index(1), 0, 5, 5}})
                   .valid());
  // File offsets must be contiguous per tier.
  EXPECT_FALSE(MemoryLayoutFile(8, {{tier_index(0), 0, 0, 4},
                                    {tier_index(0), 6, 4, 4}})
                   .valid());
  // Incomplete coverage.
  EXPECT_FALSE(MemoryLayoutFile(10, {{tier_index(0), 0, 0, 4}}).valid());
  // A tier tag at or beyond the recorded ladder depth is invalid.
  EXPECT_FALSE(MemoryLayoutFile(4, {{tier_index(2), 0, 0, 4}}).valid());
  EXPECT_TRUE(MemoryLayoutFile(4, {{tier_index(2), 0, 0, 4}}, 3).valid());
}

TEST(LayoutFile, SerializeRoundtrip) {
  MemoryLayoutFile layout(6, {{tier_index(0), 0, 0, 2},
                              {tier_index(1), 0, 2, 3},
                              {tier_index(0), 2, 5, 1}});
  const auto back = MemoryLayoutFile::deserialize(layout.serialize());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, layout);
}

TEST(LayoutFile, ThreeTierSerializeRoundtrip) {
  // Format v3 carries the ladder depth, so deep tier tags survive the trip.
  MemoryLayoutFile layout(12,
                          {{tier_index(0), 0, 0, 4},
                           {tier_index(1), 0, 4, 4},
                           {tier_index(2), 0, 8, 4}},
                          3);
  ASSERT_TRUE(layout.valid());
  const auto back = MemoryLayoutFile::deserialize(layout.serialize());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->tier_count(), 3u);
  EXPECT_EQ(*back, layout);
  EXPECT_EQ(back->pages_in(tier_index(2)), 4u);
  EXPECT_DOUBLE_EQ(back->slow_fraction(), 2.0 / 3.0);
}

TEST(LayoutFile, DeserializeRejectsInvalid) {
  auto bytes = MemoryLayoutFile(4, {{tier_index(0), 0, 0, 4}}).serialize();
  bytes[8] ^= 1;  // corrupt guest_pages -> coverage fails
  EXPECT_FALSE(MemoryLayoutFile::deserialize(bytes).has_value());
  auto bad_magic = MemoryLayoutFile(4, {{tier_index(0), 0, 0, 4}}).serialize();
  bad_magic[0] ^= 0xff;
  EXPECT_FALSE(MemoryLayoutFile::deserialize(bad_magic).has_value());
  poke_u64_le(bad_magic, 0, kLayoutV2Magic);  // the pre-ladder format
  EXPECT_FALSE(MemoryLayoutFile::deserialize(bad_magic).has_value());
}

TEST(LayoutFile, DeserializeRejectsForgedEntryCount) {
  // A count far beyond the bytes present must be rejected before anything
  // is allocated for it, not thrown out of reserve().
  auto bytes = MemoryLayoutFile(4, {{tier_index(0), 0, 0, 4}}).serialize();
  for (const u64 forged : {u64{1} << 60, ~u64{0}}) {
    poke_u64_le(bytes, 24, forged);  // magic, guest_pages, depth, count
    std::optional<MemoryLayoutFile> back;
    EXPECT_NO_THROW(back = MemoryLayoutFile::deserialize(bytes));
    EXPECT_FALSE(back.has_value());
  }
}

class TieredSnapshotTest : public ::testing::Test {
 protected:
  static constexpr u64 kPages = 128;
  GuestMemory mem = patterned_memory(kPages);
  SingleTierSnapshot snap{1, mem, VmState{}};
};

TEST_F(TieredSnapshotTest, BuildPreservesContent) {
  PagePlacement placement(kPages, tier_index(0));
  placement.set_range(10, 30, tier_index(1));
  placement.set_range(64, 64, tier_index(1));
  const TieredSnapshot tiered =
      TieredSnapshot::build(snap, placement, {2, 3});
  EXPECT_TRUE(tiered.layout().valid());
  EXPECT_EQ(tiered.guest_pages(), kPages);
  EXPECT_EQ(tiered.fast_pages() + tiered.slow_pages(), kPages);
  EXPECT_EQ(tiered.slow_pages(), 94u);
  // The re-assembled image must be bit-identical to the original memory.
  EXPECT_EQ(tiered.materialize(), mem);
}

TEST_F(TieredSnapshotTest, AdjacentSameTierPagesCoalesce) {
  PagePlacement placement(kPages, tier_index(0));
  placement.set_range(0, 64, tier_index(1));
  const TieredSnapshot tiered =
      TieredSnapshot::build(snap, placement, {2, 3});
  // Exactly two mappings: one slow run, one fast run ("Bins Merging").
  EXPECT_EQ(tiered.layout().entry_count(), 2u);
}

TEST_F(TieredSnapshotTest, LocateAgreesWithPlacement) {
  PagePlacement placement(kPages, tier_index(0));
  placement.set_range(40, 20, tier_index(1));
  const TieredSnapshot tiered =
      TieredSnapshot::build(snap, placement, {2, 3});
  for (u64 p = 0; p < kPages; ++p) {
    const auto loc = tiered.locate(p);
    EXPECT_EQ(loc.tier, placement.tier_of(p)) << p;
    const u32 version =
        tiered.tier_versions(tier_rank(loc.tier))[loc.file_page];
    EXPECT_EQ(version, mem.version(p)) << p;
  }
}

TEST_F(TieredSnapshotTest, ThreeRungBuildMaterializesAndRoundtrips) {
  // One file per rung: pages spread over a three-rung ladder reassemble
  // bit-identically and survive the v2 ("TOSSTIR2") serialization.
  PagePlacement placement(kPages, tier_index(0));
  placement.set_range(32, 32, tier_index(1));
  placement.set_range(64, 64, tier_index(2));
  const TieredSnapshot tiered =
      TieredSnapshot::build(snap, placement, {7, 8, 9});
  EXPECT_EQ(tiered.tier_count(), 3u);
  EXPECT_EQ(tiered.layout().tier_count(), 3u);
  EXPECT_EQ(tiered.tier_pages(0), 32u);
  EXPECT_EQ(tiered.tier_pages(1), 32u);
  EXPECT_EQ(tiered.tier_pages(2), 64u);
  EXPECT_EQ(tiered.slow_pages(), 96u);
  EXPECT_EQ(tier_rank(tiered.locate(70).tier), 2u);
  EXPECT_EQ(tiered.materialize(), mem);
  EXPECT_EQ(tiered.verify(), std::nullopt);
  const auto back = TieredSnapshot::deserialize(tiered.serialize());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, tiered);
  EXPECT_EQ(back->materialize(), mem);
}

TEST_F(TieredSnapshotTest, SerializeRoundtrip) {
  PagePlacement placement(kPages, tier_index(0));
  placement.set_range(8, 40, tier_index(1));
  placement.set_range(100, 28, tier_index(1));
  const TieredSnapshot tiered =
      TieredSnapshot::build(snap, placement, {7, 8});
  const auto back = TieredSnapshot::deserialize(tiered.serialize());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, tiered);
  EXPECT_EQ(back->materialize(), mem);
}

TEST_F(TieredSnapshotTest, DeserializeRejectsCorruption) {
  PagePlacement placement(kPages, tier_index(0));
  placement.set_range(0, 64, tier_index(1));
  const TieredSnapshot tiered =
      TieredSnapshot::build(snap, placement, {7, 8});
  auto bytes = tiered.serialize();
  EXPECT_FALSE(TieredSnapshot::deserialize({}).has_value());
  auto bad_magic = bytes;
  bad_magic[0] ^= 0xff;
  EXPECT_FALSE(TieredSnapshot::deserialize(bad_magic).has_value());
  poke_u64_le(bad_magic, 0, kTieredV1Magic);  // the pre-ladder format
  EXPECT_FALSE(TieredSnapshot::deserialize(bad_magic).has_value());
  auto truncated = bytes;
  truncated.resize(truncated.size() / 2);
  EXPECT_FALSE(TieredSnapshot::deserialize(truncated).has_value());
}

TEST_F(TieredSnapshotTest, DeserializeRejectsForgedLengths) {
  // Length words sized to wrap `pos + length` past 2^64 back inside the
  // buffer must be rejected, never turned into a reversed range or a huge
  // allocation.
  PagePlacement placement(kPages, tier_index(0));
  placement.set_range(0, 64, tier_index(1));
  const TieredSnapshot tiered =
      TieredSnapshot::build(snap, placement, {7, 8});
  const std::vector<u8> bytes = tiered.serialize();
  auto parse = [](const std::vector<u8>& forged) {
    std::optional<TieredSnapshot> back;
    EXPECT_NO_THROW(back = TieredSnapshot::deserialize(forged));
    return back.has_value();
  };

  // The vm-state blob length follows the magic, the rank count and one
  // file id per rank; the blob starts right after it.
  const size_t blob_len_at = 16 + 8 * tiered.tier_count();
  auto forged_blob = bytes;
  poke_u64_le(forged_blob, blob_len_at, u64{0} - (blob_len_at + 8) + 1);
  EXPECT_FALSE(parse(forged_blob));

  // The rank-0 page-version count: every tier file is a count word plus
  // four bytes per page, stored last.
  size_t count_at = bytes.size();
  for (size_t r = 0; r < tiered.tier_count(); ++r)
    count_at -= 8 + 4 * tiered.tier_pages(r);
  for (const u64 forged : {u64{1} << 62, ~u64{0} / 4}) {
    auto forged_count = bytes;
    poke_u64_le(forged_count, count_at, forged);
    EXPECT_FALSE(parse(forged_count));
  }
}

TEST(SnapshotStore, IdsAndLookup) {
  const SystemConfig cfg = SystemConfig::paper_default();
  SnapshotStore store(cfg);
  const GuestMemory mem = patterned_memory(32);
  const u64 id = store.put_single_tier(mem, VmState{});
  ASSERT_NE(store.get_single_tier(id), nullptr);
  EXPECT_EQ(store.get_single_tier(id)->materialize(), mem);
  EXPECT_EQ(store.get_single_tier(id + 999), nullptr);
  EXPECT_NE(store.allocate_file_id(), id);
}

TEST(SnapshotStore, TieredLookupByEitherId) {
  const SystemConfig cfg = SystemConfig::paper_default();
  SnapshotStore store(cfg);
  const GuestMemory mem = patterned_memory(32);
  const u64 sid = store.put_single_tier(mem, VmState{});
  PagePlacement placement(32, tier_index(0));
  placement.set_range(16, 16, tier_index(1));
  const u64 fast_id = store.allocate_file_id();
  const u64 slow_id = store.allocate_file_id();
  store.put_tiered(TieredSnapshot::build(*store.get_single_tier(sid),
                                         placement, {fast_id, slow_id}));
  EXPECT_NE(store.get_tiered(fast_id), nullptr);
  EXPECT_EQ(store.get_tiered(fast_id), store.get_tiered(slow_id));
}

class MicroVmTest : public ::testing::Test {
 protected:
  SystemConfig cfg = SystemConfig::paper_default();
  SnapshotStore store{cfg};

  BurstTrace simple_trace(u64 begin, u64 pages, Pattern pattern,
                          double wf = 0.0) {
    BurstTrace t;
    t.push_back(AccessBurst{begin, pages, pages * 10, pattern, wf, 0.0});
    return t;
  }
};

TEST_F(MicroVmTest, BootThenExecuteAnonymousMinorFaults) {
  MicroVm vm(cfg, store);
  const auto setup = vm.boot(kMiB, VmState{});
  EXPECT_EQ(setup.mappings, 1u);
  EXPECT_GT(setup.setup_ns, 0);
  const auto r = vm.execute(simple_trace(0, 64, Pattern::kSequential), ms(1));
  EXPECT_EQ(r.minor_faults, 64u);   // anonymous zero-fill
  EXPECT_EQ(r.major_faults, 0u);
  EXPECT_EQ(r.touched_pages, 64u);
  EXPECT_GT(r.exec_ns, ms(1));
}

TEST_F(MicroVmTest, SecondTouchNoFault) {
  MicroVm vm(cfg, store);
  vm.boot(kMiB, VmState{});
  vm.execute(simple_trace(0, 64, Pattern::kSequential), ms(1));
  const auto r = vm.execute(simple_trace(0, 64, Pattern::kSequential), ms(1));
  EXPECT_EQ(r.minor_faults, 0u);
  EXPECT_EQ(r.touched_pages, 0u);
}

TEST_F(MicroVmTest, RestoreLazyMajorFaultsFromDisk) {
  // Snapshot 256 pages, restore lazily with a dropped cache: random-pattern
  // touches must major-fault, one disk read each.
  MicroVm vm(cfg, store);
  vm.boot(bytes_for_pages(256), VmState{});
  const u64 snap_id = vm.take_snapshot();

  RestorePlan plan;
  plan.vm_state = VmState{};
  plan.guest_pages = 256;
  plan.mappings.push_back(
      RestoreMapping{0, 256, tier_index(0), snap_id, 0, false});
  store.drop_caches();
  MicroVm vm2(cfg, store);
  vm2.restore(plan);
  const auto r = vm2.execute(simple_trace(0, 64, Pattern::kRandom), ms(1));
  EXPECT_EQ(r.major_faults, 64u);
  EXPECT_EQ(r.disk_pages, 64u);
  EXPECT_GT(r.disk_ns, 0);
}

TEST_F(MicroVmTest, SequentialFaultsBenefitFromReadahead) {
  MicroVm vm(cfg, store);
  vm.boot(bytes_for_pages(256), VmState{});
  const u64 snap_id = vm.take_snapshot();
  RestorePlan plan;
  plan.guest_pages = 256;
  plan.mappings.push_back(
      RestoreMapping{0, 256, tier_index(0), snap_id, 0, false});

  store.drop_caches();
  MicroVm vm2(cfg, store);
  vm2.restore(plan);
  const auto r = vm2.execute(simple_trace(0, 64, Pattern::kSequential), ms(1));
  EXPECT_LT(r.major_faults, 64u);  // readahead converts most to minor
  EXPECT_GT(r.minor_faults, 0u);
}

TEST_F(MicroVmTest, EagerLoadedPagesTakeNoFault) {
  MicroVm vm(cfg, store);
  vm.boot(bytes_for_pages(128), VmState{});
  const u64 snap_id = vm.take_snapshot();
  RestorePlan plan;
  plan.guest_pages = 128;
  plan.mappings.push_back(
      RestoreMapping{0, 128, tier_index(0), snap_id, 0, false});
  plan.eager.push_back(EagerLoad{0, 64, snap_id, 0});
  store.drop_caches();
  MicroVm vm2(cfg, store);
  const auto setup = vm2.restore(plan);
  EXPECT_EQ(setup.eager_pages, 64u);
  EXPECT_GT(setup.eager_load_ns, 0);
  const auto r = vm2.execute(simple_trace(0, 64, Pattern::kRandom), ms(1));
  EXPECT_EQ(r.minor_faults, 0u);
  EXPECT_EQ(r.major_faults, 0u);
}

TEST_F(MicroVmTest, DaxMappingsMinorFaultOnly) {
  MicroVm vm(cfg, store);
  vm.boot(bytes_for_pages(128), VmState{});
  const u64 snap_id = vm.take_snapshot();
  RestorePlan plan;
  plan.guest_pages = 128;
  plan.mappings.push_back(
      RestoreMapping{0, 128, tier_index(1), snap_id, 0, true});
  store.drop_caches();
  MicroVm vm2(cfg, store);
  vm2.restore(plan);
  const auto r = vm2.execute(simple_trace(0, 64, Pattern::kRandom), ms(1));
  EXPECT_EQ(r.major_faults, 0u);
  EXPECT_EQ(r.minor_faults, 64u);
  EXPECT_GT(r.slow_accesses, 0u);
}

TEST_F(MicroVmTest, SetupTimeScalesWithMappings) {
  MicroVm vm(cfg, store);
  vm.boot(bytes_for_pages(128), VmState{});
  const u64 snap_id = vm.take_snapshot();
  auto plan_with = [&](u64 mappings) {
    RestorePlan plan;
    plan.guest_pages = 128;
    const u64 per = 128 / mappings;
    for (u64 i = 0; i < mappings; ++i)
      plan.mappings.push_back(RestoreMapping{i * per, per, tier_index(0),
                                             snap_id, i * per, false});
    return plan;
  };
  MicroVm a(cfg, store), b(cfg, store);
  const auto s1 = a.restore(plan_with(1));
  const auto s32 = b.restore(plan_with(32));
  EXPECT_NEAR(s32.setup_ns - s1.setup_ns, 31 * cfg.vmm.mmap_region_ns, 1.0);
}

TEST_F(MicroVmTest, CowFaultOnFirstWrite) {
  MicroVm vm(cfg, store);
  vm.boot(kMiB, VmState{});
  const auto r1 = vm.execute(simple_trace(0, 16, Pattern::kRandom, 0.5), ms(1));
  EXPECT_EQ(r1.cow_faults, 16u);
  const auto r2 = vm.execute(simple_trace(0, 16, Pattern::kRandom, 0.5), ms(1));
  EXPECT_EQ(r2.cow_faults, 0u);  // already copied
}

TEST_F(MicroVmTest, ApplyWritesBumpsVersionsAndSnapshotSees) {
  MicroVm vm(cfg, store);
  vm.boot(bytes_for_pages(32), VmState{});
  const BurstTrace t = simple_trace(4, 8, Pattern::kSequential, 0.7);
  vm.execute(t, ms(1));
  vm.apply_writes(t);
  EXPECT_EQ(vm.memory().version(4), 1u);
  EXPECT_EQ(vm.memory().version(0), 0u);
  const u64 id = vm.take_snapshot();
  EXPECT_EQ(store.get_single_tier(id)->page_version(4), 1u);
}

TEST_F(MicroVmTest, RestoreMaterializesTieredContent) {
  // Boot, write, snapshot, tier it, restore -> memory must match.
  MicroVm vm(cfg, store);
  vm.boot(bytes_for_pages(64), VmState{});
  const BurstTrace t = simple_trace(0, 64, Pattern::kSequential, 1.0);
  vm.execute(t, ms(1));
  vm.apply_writes(t);
  const GuestMemory want = vm.memory();
  const u64 snap_id = vm.take_snapshot();

  PagePlacement placement(64, tier_index(0));
  placement.set_range(32, 32, tier_index(1));
  const u64 fast_id = store.allocate_file_id();
  const u64 slow_id = store.allocate_file_id();
  store.put_tiered(TieredSnapshot::build(*store.get_single_tier(snap_id),
                                         placement, {fast_id, slow_id}));
  const TieredSnapshot* tiered = store.get_tiered(fast_id);

  RestorePlan plan;
  plan.guest_pages = 64;
  for (const auto& e : tiered->layout().entries()) {
    plan.mappings.push_back(RestoreMapping{
        e.guest_page, e.page_count, e.tier,
        tiered->file_id(tier_rank(e.tier)), e.file_page,
        tier_rank(e.tier) != 0});
  }
  MicroVm vm2(cfg, store);
  vm2.restore(plan);
  EXPECT_EQ(vm2.memory(), want);
}

TEST_F(MicroVmTest, EveryPolicyPlansSortedDisjointMappings) {
  // restore() requires mappings sorted by guest_page and disjoint. Build a
  // Step-I snapshot with two touched ranges and a tiered artifact with four
  // layout runs, then check every shipped policy's plan and that each
  // restores the snapshot's contents.
  constexpr u64 kPages = 256;
  MicroVm vm(cfg, store);
  vm.boot(bytes_for_pages(kPages), VmState{});
  BurstTrace first;
  first.push_back(AccessBurst{8, 16, 160, Pattern::kRandom, 0.5, 0.0});
  first.push_back(AccessBurst{100, 40, 400, Pattern::kSequential, 0.3, 0.0});
  vm.execute(first, ms(1));
  vm.apply_writes(first);
  const u64 single = vm.take_snapshot();
  PagePlacement placement(kPages, tier_index(0));
  placement.set_range(64, 64, tier_index(1));
  placement.set_range(200, 56, tier_index(1));
  const u64 tiered =
      tier_snapshot(store, *store.get_single_tier(single), placement);

  const VanillaPolicy vanilla(store, single);
  const ReapPolicy reap(store, single,
                        ReapPolicy::record_working_set(first, kPages));
  const FaasnapPolicy faasnap(
      store, single,
      FaasnapPolicy::record_working_set(first, kPages,
                                        store.page_cache().readahead_pages()));
  const TossPolicy toss(store, tiered);
  for (const RestorePolicy* policy :
       std::initializer_list<const RestorePolicy*>{&vanilla, &reap, &faasnap,
                                                    &toss}) {
    SCOPED_TRACE(policy->name());
    const RestorePlan plan = policy->plan_restore();
    ASSERT_FALSE(plan.mappings.empty());
    u64 end = 0;
    for (const RestoreMapping& m : plan.mappings) {
      EXPECT_GE(m.guest_page, end);
      end = m.guest_page + m.page_count;
    }
    EXPECT_LE(end, plan.guest_pages);
    MicroVm restored(cfg, store);
    restored.restore(plan);
    EXPECT_EQ(restored.memory(), vm.memory());
  }
  EXPECT_GT(faasnap.plan_restore().mapping_count(), 2u);
  EXPECT_EQ(toss.plan_restore().mapping_count(), 4u);
}

// ---------------------------------------------------------------------------
// Failure domains: typed errors, verification, quarantine, atomic puts.
// Everything except the injected-fault test is valid in every build; the
// corruption hooks (corrupt_tiered_page / truncate_tiered) work without
// TOSS_FAULTS precisely so these paths stay covered in the default config.
// ---------------------------------------------------------------------------

/// Runs `f`, which must throw toss::Error, and returns the carried code.
template <typename F>
ErrorCode code_of(F&& f) {
  try {
    f();
  } catch (const Error& e) {
    return e.code();
  }
  ADD_FAILURE() << "expected toss::Error, nothing thrown";
  return ErrorCode::kUnknownFunction;
}

class SnapshotFailureTest : public ::testing::Test {
 protected:
  SystemConfig cfg = SystemConfig::paper_default();
  SnapshotStore store{cfg};
  u64 single_id = 0, fast_id = 0, slow_id = 0;

  void SetUp() override {
    single_id = store.put_single_tier(patterned_memory(32), VmState{});
    PagePlacement placement(32, tier_index(0));
    placement.set_range(16, 16, tier_index(1));
    fast_id = store.allocate_file_id();
    slow_id = store.allocate_file_id();
    store.put_tiered(TieredSnapshot::build(*store.get_single_tier(single_id),
                                           placement, {fast_id, slow_id}));
  }
};

TEST_F(SnapshotFailureTest, FetchMissingIdsThrowTypedErrors) {
  EXPECT_EQ(code_of([&] { store.fetch_single_tier(999); }),
            ErrorCode::kSnapshotMissing);
  EXPECT_EQ(code_of([&] { store.fetch_tiered(999); }),
            ErrorCode::kSnapshotMissing);
  // The happy paths back the same ids.
  EXPECT_EQ(store.fetch_single_tier(single_id).materialize(),
            patterned_memory(32));
  EXPECT_EQ(&store.fetch_tiered(slow_id), store.get_tiered(fast_id));
}

TEST_F(SnapshotFailureTest, VerifyTieredDetectsBitrot) {
  EXPECT_TRUE(store.verify_tiered(fast_id).ok());
  ASSERT_TRUE(store.corrupt_tiered_page(fast_id, 3));
  const auto broken = store.verify_tiered(fast_id);
  ASSERT_FALSE(broken.ok());
  EXPECT_EQ(broken.code(), ErrorCode::kSnapshotCorrupted);
  // Resolution through the slow-id alias sees the same damage.
  EXPECT_FALSE(store.verify_tiered(slow_id).ok());
  EXPECT_FALSE(store.corrupt_tiered_page(999, 0));
}

TEST_F(SnapshotFailureTest, VerifyTieredDetectsTruncation) {
  ASSERT_TRUE(store.truncate_tiered(fast_id));
  const auto broken = store.verify_tiered(fast_id);
  ASSERT_FALSE(broken.ok());
  EXPECT_EQ(broken.code(), ErrorCode::kSnapshotCorrupted);
  EXPECT_FALSE(store.truncate_tiered(999));
}

TEST_F(SnapshotFailureTest, EveryDamageHookFailsTheNextVerify) {
  // verify_tiered caches a clean result per damage epoch; each damage hook
  // must start a new epoch so the very next verify recomputes and fails.
  const auto expect_corrupted = [&](u64 id, const char* route) {
    const auto v = store.verify_tiered(id);
    ASSERT_FALSE(v.ok()) << route;
    EXPECT_EQ(v.code(), ErrorCode::kSnapshotCorrupted) << route;
  };
  EXPECT_TRUE(store.verify_tiered(fast_id).ok());
  EXPECT_TRUE(store.verify_tiered(slow_id).ok());  // cached, via the alias
  ASSERT_TRUE(store.corrupt_tiered_page(slow_id, 3));
  expect_corrupted(fast_id, "corrupt_tiered_page");
  expect_corrupted(fast_id, "corrupt_tiered_page, second verify");

  // A regenerated artifact put under fresh ids verifies clean, and stays
  // clean on the cached path.
  const auto put_fresh = [&] {
    PagePlacement placement(32, tier_index(0));
    placement.set_range(8, 8, tier_index(1));
    const u64 fast = store.allocate_file_id();
    const u64 slow = store.allocate_file_id();
    store.put_tiered(TieredSnapshot::build(*store.get_single_tier(single_id),
                                           placement, {fast, slow}));
    return fast;
  };
  const u64 regenerated = put_fresh();
  EXPECT_TRUE(store.verify_tiered(regenerated).ok());
  EXPECT_TRUE(store.verify_tiered(regenerated).ok());
  ASSERT_TRUE(store.truncate_tiered(regenerated));
  expect_corrupted(regenerated, "truncate_tiered");

  // Quarantine drops the cached result too: the artifact reads as missing.
  const u64 quarantined = put_fresh();
  EXPECT_TRUE(store.verify_tiered(quarantined).ok());
  store.quarantine_tiered(quarantined);
  EXPECT_EQ(store.verify_tiered(quarantined).code(),
            ErrorCode::kSnapshotMissing);
  EXPECT_TRUE(store.verify_tiered(put_fresh()).ok());
}

TEST_F(SnapshotFailureTest, QuarantineHidesArtifactAndIsIdempotent) {
  // Quarantine via the slow-id alias; both ids become unreadable.
  store.quarantine_tiered(slow_id);
  EXPECT_TRUE(store.is_quarantined(fast_id));
  EXPECT_TRUE(store.is_quarantined(slow_id));
  EXPECT_EQ(store.get_tiered(fast_id), nullptr);
  EXPECT_EQ(store.get_tiered(slow_id), nullptr);
  EXPECT_EQ(code_of([&] { store.fetch_tiered(fast_id); }),
            ErrorCode::kSnapshotMissing);
  const auto v = store.verify_tiered(fast_id);
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.code(), ErrorCode::kSnapshotMissing);

  store.quarantine_tiered(fast_id);  // idempotent
  EXPECT_EQ(store.quarantine_count(), 1u);

  // The retained single-tier generation is untouched: the degrade rung.
  EXPECT_EQ(store.fetch_single_tier(single_id).materialize(),
            patterned_memory(32));
}

TEST_F(SnapshotFailureTest, ResidentBytesFollowTheAliasMap) {
  // The arbiter's fleet accounting must see the same artifact through
  // either file id of a tiered pair, pin the full image for single-tier
  // generations, and charge nothing for unknown or quarantined ids.
  const TieredSnapshot* tiered = store.get_tiered(fast_id);
  ASSERT_NE(tiered, nullptr);
  const u64 fast = bytes_for_pages(tiered->fast_pages());
  const u64 slow = bytes_for_pages(tiered->slow_pages());
  EXPECT_GT(fast, 0u);
  EXPECT_GT(slow, 0u);
  EXPECT_EQ(store.resident_fast_bytes(fast_id), fast);
  EXPECT_EQ(store.resident_fast_bytes(slow_id), fast);
  EXPECT_EQ(store.resident_slow_bytes(fast_id), slow);
  EXPECT_EQ(store.resident_slow_bytes(slow_id), slow);
  // The per-rank view agrees with the rollups.
  EXPECT_EQ(store.resident_tier_bytes(fast_id, 0), fast);
  EXPECT_EQ(store.resident_tier_bytes(fast_id, 1), slow);
  EXPECT_EQ(store.resident_tier_bytes(fast_id, 2), 0u);

  EXPECT_EQ(store.resident_fast_bytes(single_id),
            store.get_single_tier(single_id)->memory_bytes());
  EXPECT_EQ(store.resident_slow_bytes(single_id), 0u);
  EXPECT_EQ(store.resident_fast_bytes(999), 0u);
  EXPECT_EQ(store.resident_slow_bytes(999), 0u);

  store.quarantine_tiered(slow_id);
  EXPECT_EQ(store.resident_fast_bytes(fast_id), 0u);
  EXPECT_EQ(store.resident_slow_bytes(slow_id), 0u);
}

TEST_F(SnapshotFailureTest, RepeatedChecksumFailuresQuarantineOnce) {
  // Every fetch of a bitrotted artifact fails its checksum; the recovery
  // path reacts by quarantining each time — through the slow-id alias —
  // and the quarantine must stay idempotent.
  ASSERT_TRUE(store.corrupt_tiered_page(fast_id, 3));
  for (int round = 0; round < 3; ++round) {
    EXPECT_FALSE(store.verify_tiered(slow_id).ok()) << round;
    store.quarantine_tiered(slow_id);
  }
  EXPECT_EQ(store.quarantine_count(), 1u);

  // Both ids report "quarantined", not a silent missing-mapping.
  try {
    store.fetch_tiered(slow_id);
    ADD_FAILURE() << "fetch of quarantined artifact did not throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kSnapshotMissing);
    EXPECT_NE(std::string(e.what()).find("quarantined"), std::string::npos);
  }
}

TEST_F(SnapshotFailureTest, RestoreMissingFileIdThrowsTyped) {
  MicroVm vm(cfg, store);
  RestorePlan plan;
  plan.guest_pages = 32;
  plan.mappings.push_back(
      RestoreMapping{0, 32, tier_index(0), 999, 0, false});
  EXPECT_EQ(code_of([&] { vm.restore(plan); }), ErrorCode::kSnapshotMissing);
}

TEST_F(SnapshotFailureTest, RestoreOverrunMappingThrowsCorrupted) {
  // A mapping that reads past the end of the snapshot file means the
  // artifact and the plan disagree about its length: corrupted, not missing.
  MicroVm vm(cfg, store);
  RestorePlan plan;
  plan.guest_pages = 64;
  plan.mappings.push_back(
      RestoreMapping{0, 64, tier_index(0), single_id, 0, false});
  EXPECT_EQ(code_of([&] { vm.restore(plan); }),
            ErrorCode::kSnapshotCorrupted);
}

TEST(SnapshotStore, AccountingHoldsThroughPutAndDamageChurn) {
  // One writer keeps publishing, quarantining and truncating artifacts.
  // After every round the newest intact artifact must verify clean with
  // nonzero per-rank accounting; at the end every damaged id reports its
  // failure and the quarantine count matches.
  const SystemConfig cfg = SystemConfig::paper_default();
  SnapshotStore store(cfg);
  u64 newest = 0;  // latest intact (never-damaged) rank-0 id
  u64 quarantined = 0;
  std::vector<u64> damaged_ids;
  for (int round = 0; round < 120; ++round) {
    const u64 sid = store.put_single_tier(patterned_memory(32), VmState{});
    PagePlacement placement(32, tier_index(0));
    placement.set_range(16, 16, tier_index(1));
    const u64 fast_id = store.allocate_file_id();
    const u64 slow_id = store.allocate_file_id();
    store.put_tiered(TieredSnapshot::build(*store.get_single_tier(sid),
                                           placement, {fast_id, slow_id}));
    if (round % 5 == 1) {
      store.quarantine_tiered(fast_id);
      ++quarantined;
      damaged_ids.push_back(fast_id);
    } else if (round % 7 == 2) {
      EXPECT_TRUE(store.truncate_tiered(fast_id));
      damaged_ids.push_back(fast_id);
    } else {
      newest = fast_id;
    }
    if (newest == 0) continue;
    ASSERT_TRUE(store.verify_tiered(newest).ok()) << "round " << round;
    ASSERT_GT(store.resident_fast_bytes(newest), 0u) << "round " << round;
    ASSERT_GT(store.resident_slow_bytes(newest), 0u) << "round " << round;
  }
  ASSERT_NE(newest, 0u);
  EXPECT_EQ(store.quarantine_count(), quarantined);
  for (const u64 id : damaged_ids)
    EXPECT_FALSE(store.verify_tiered(id).ok());
}

TEST(SnapshotStoreFaults, TornPutLeavesPreviousGenerationReadable) {
  if (!fault_injection_enabled())
    GTEST_SKIP() << "requires -DTOSS_FAULTS=ON";
  const SystemConfig cfg = SystemConfig::paper_default();
  SnapshotStore store(cfg);

  FaultPlan plan;
  plan.seed = 7;
  plan.set(FaultSite::kPutSingleTier, {.schedule = {1}});  // 2nd put tears
  plan.set(FaultSite::kPutTiered, {.schedule = {0}});      // 1st put tears
  FaultInjector injector(plan, 0);
  store.attach_faults(&injector);

  const u64 gen1 = store.put_single_tier(patterned_memory(16), VmState{});
  EXPECT_EQ(code_of([&] {
              store.put_single_tier(patterned_memory(32), VmState{});
            }),
            ErrorCode::kTransientIo);
  // Atomicity: the torn write changed nothing — the previous generation is
  // still readable and no file id was burned.
  EXPECT_EQ(store.fetch_single_tier(gen1).materialize(),
            patterned_memory(16));
  const u64 gen2 = store.put_single_tier(patterned_memory(32), VmState{});
  EXPECT_EQ(gen2, gen1 + 1);

  PagePlacement placement(32, tier_index(0));
  placement.set_range(0, 16, tier_index(1));
  const u64 fast_id = store.allocate_file_id();
  const u64 slow_id = store.allocate_file_id();
  TieredSnapshot tiered = TieredSnapshot::build(
      *store.get_single_tier(gen2), placement, {fast_id, slow_id});
  EXPECT_EQ(code_of([&] { store.put_tiered(tiered); }),
            ErrorCode::kTransientIo);
  EXPECT_EQ(store.get_tiered(fast_id), nullptr);
  store.put_tiered(tiered);  // retry lands: only the schedule's arm tears
  ASSERT_NE(store.get_tiered(fast_id), nullptr);
  EXPECT_EQ(store.get_tiered(fast_id)->materialize(), patterned_memory(32));
  EXPECT_EQ(injector.total_fires(), 2u);
  store.attach_faults(nullptr);
}

TEST(SnapshotStoreFaults, FetchDamageFailsTheNextVerify) {
  if (!fault_injection_enabled())
    GTEST_SKIP() << "requires -DTOSS_FAULTS=ON";
  const SystemConfig cfg = SystemConfig::paper_default();
  SnapshotStore store(cfg);
  const u64 single_id = store.put_single_tier(patterned_memory(32), VmState{});
  const auto put_fresh = [&] {
    PagePlacement placement(32, tier_index(0));
    placement.set_range(16, 16, tier_index(1));
    const u64 fast = store.allocate_file_id();
    const u64 slow = store.allocate_file_id();
    store.put_tiered(TieredSnapshot::build(*store.get_single_tier(single_id),
                                           placement, {fast, slow}));
    return fast;
  };

  // The first fetch rots a fast page, the second truncates the fast file.
  FaultPlan plan;
  plan.seed = 11;
  plan.set(FaultSite::kTierBitrot, {.schedule = {0}});
  plan.set(FaultSite::kTierTruncate, {.schedule = {1}});
  FaultInjector injector(plan, 0);
  store.attach_faults(&injector);

  const u64 rotted = put_fresh();
  EXPECT_TRUE(store.verify_tiered(rotted).ok());
  store.fetch_tiered(rotted);
  EXPECT_EQ(injector.fires(FaultSite::kTierBitrot), 1u);
  EXPECT_EQ(store.verify_tiered(rotted).code(), ErrorCode::kSnapshotCorrupted);

  const u64 truncated = put_fresh();
  EXPECT_TRUE(store.verify_tiered(truncated).ok());
  store.fetch_tiered(truncated);
  EXPECT_EQ(injector.fires(FaultSite::kTierTruncate), 1u);
  EXPECT_EQ(store.verify_tiered(truncated).code(),
            ErrorCode::kSnapshotCorrupted);

  // Quiet fetches leave a fresh artifact verifying clean.
  const u64 regenerated = put_fresh();
  store.fetch_tiered(regenerated);
  EXPECT_TRUE(store.verify_tiered(regenerated).ok());
  EXPECT_EQ(injector.total_fires(), 2u);
  store.attach_faults(nullptr);
}

}  // namespace
}  // namespace toss
