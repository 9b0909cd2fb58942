// Tiered snapshot: one memory file per ladder rank plus the memory layout
// file (Section V-D). Built by serially copying each region of the
// single-tier snapshot into the file of its assigned tier.
//
// At restore time the rank-0 (fastest-tier) file behaves like a normal disk
// file (pages are demand-loaded into DRAM through the host page cache),
// while every deeper rank's file is DAX-mapped straight out of its device —
// no copy, which is why TOSS setup time is constant in snapshot size.
#pragma once

#include "mem/placement.hpp"
#include "vmm/layout.hpp"
#include "vmm/snapshot.hpp"

namespace toss {

class TieredSnapshot {
 public:
  TieredSnapshot() = default;

  /// Partition `snap` by per-page `placement`. Consecutive pages in the same
  /// tier become one layout entry (the paper's "Bins Merging" guarantees the
  /// optimizer already merged same-tier neighbors; this copy is agnostic).
  /// `file_ids` identifies one file per ladder rank (index 0 = fastest) for
  /// page-cache accounting; its length fixes the artifact's ladder depth.
  static TieredSnapshot build(const SingleTierSnapshot& snap,
                              const PagePlacement& placement,
                              std::vector<u64> file_ids);

  const MemoryLayoutFile& layout() const { return layout_; }
  const VmState& vm_state() const { return vm_state_; }

  /// Ladder depth of the artifact (number of tier files).
  size_t tier_count() const { return file_ids_.size(); }

  u64 file_id(size_t rank) const { return file_ids_[rank]; }
  const std::vector<u64>& file_ids() const { return file_ids_; }

  u64 guest_pages() const { return layout_.guest_pages(); }
  u64 tier_pages(size_t rank) const {
    return static_cast<u64>(tier_versions_[rank].size());
  }
  /// Every page version of rank `rank`'s file, in file order.
  const std::vector<u32>& tier_versions(size_t rank) const {
    return tier_versions_[rank];
  }

  /// Convenience rollups: the fastest rank, and everything below it.
  u64 fast_file_id() const { return file_ids_.front(); }
  u64 fast_pages() const { return tier_pages(0); }
  u64 slow_pages() const {
    u64 n = 0;
    for (size_t r = 1; r < tier_versions_.size(); ++r) n += tier_pages(r);
    return n;
  }

  /// Look up where a guest page lives: (tier, file page index).
  struct Location {
    Tier tier;
    u64 file_page;
  };
  Location locate(u64 guest_page) const;

  /// Reassemble the guest memory image from the tier files + layout; must be
  /// identical to the original snapshot's memory (tested invariant).
  GuestMemory materialize() const;

  /// Content verification: every layout entry's stored checksum must match
  /// the bytes actually in its tier file, and the tier files must be exactly
  /// as long as the layout says. Returns std::nullopt when intact, else a
  /// description of the first violation ("entry 2: checksum mismatch ...").
  /// The recovery ladder verifies before every tiered restore, through
  /// SnapshotStore::verify_tiered, which reruns this once per damage epoch;
  /// a failure quarantines the artifact instead of mapping it.
  std::optional<std::string> verify() const;

  /// Fault/test hooks modelling at-rest damage to the rank-0 file. Checksums
  /// are left stale on purpose, which is exactly what verify() exists to
  /// catch.
  void corrupt_fast_page(u64 file_page);  ///< flip one page's content
  void truncate_fast_file();              ///< drop the fast file's last page

  /// Full binary serialization of the tiered artifact (vm state + layout
  /// file + all tier files), as it would be stored on disk/PMem, in the
  /// ladder-aware "TOSSTIR2" format (the only one read back).
  std::vector<u8> serialize() const;
  static std::optional<TieredSnapshot> deserialize(
      const std::vector<u8>& bytes);

  bool operator==(const TieredSnapshot&) const = default;

 private:
  MemoryLayoutFile layout_;
  VmState vm_state_;
  std::vector<u64> file_ids_;                  ///< one per rank, 0 = fastest
  std::vector<std::vector<u32>> tier_versions_;  ///< page contents per rank
};

}  // namespace toss
