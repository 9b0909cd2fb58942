// Snapshot storage on the simulated disk.
//
// Owns file-id allocation and the snapshot blobs, and prices disk transfers
// using the DiskSpec. The lane's view of the host page cache lives here
// too, so experiments can drop it between invocations like the paper's
// methodology does.
//
// Failure domain semantics (the fault-injection PR):
//   - Puts are atomic: blobs are fully staged before any store state is
//     touched (write-temp-then-rename), so a torn write — injected at the
//     kPutSingleTier / kPutTiered sites — throws toss::Error(kTransientIo)
//     and leaves every previous snapshot generation readable.
//   - Reads come in two flavours: the const get_* accessors (nullptr on
//     miss, used by restore policies on already-verified artifacts) and the
//     fetch_* ladder entry points, which arm the at-rest corruption sites
//     (kTierBitrot / kTierTruncate) and throw typed errors for missing or
//     quarantined ids.
//   - Quarantine: a checksum-failed tiered artifact is marked unreadable
//     so the recovery ladder degrades to the retained single-tier snapshot
//     and Step V regenerates a fresh artifact instead of re-mapping rot.
//
// Ownership (DESIGN.md §15): a store belongs to one ServerlessPlatform,
// and so to one lane. Only the participant running that lane in an epoch,
// or the serial barrier after the epoch join, touches it; the join is the
// one synchronisation point, so the store holds no lock or atomic.
#pragma once

#include <map>
#include <memory>
#include <set>

#include "mem/access_cost.hpp"
#include "mem/page_cache.hpp"
#include "mem/tier.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "vmm/snapshot.hpp"
#include "vmm/tiered_snapshot.hpp"

namespace toss {

class SnapshotStore {
 public:
  explicit SnapshotStore(const SystemConfig& cfg);

  /// Attach the lane's fault injector (nullptr detaches). The store does
  /// not own it; lifetime is managed by the platform that owns both.
  void attach_faults(FaultInjector* faults) { faults_ = faults; }
  FaultInjector* faults() { return faults_; }

  /// Allocate a fresh file id (snapshot files, WS files, layout files...).
  u64 allocate_file_id();

  /// Persist a single-tier snapshot of `memory`; returns its file id.
  /// Throws toss::Error(kTransientIo) when a torn-write fault fires; the
  /// store is unchanged in that case.
  u64 put_single_tier(const GuestMemory& memory, const VmState& state);

  const SingleTierSnapshot* get_single_tier(u64 file_id) const;

  /// Persist a tiered snapshot (already built); retrievable by any of its
  /// per-rank file ids. Same atomicity contract as put_single_tier.
  void put_tiered(TieredSnapshot snapshot);

  /// nullptr for unknown or quarantined ids.
  const TieredSnapshot* get_tiered(u64 file_id) const;

  /// Ladder read path for the single-tier snapshot: throws
  /// toss::Error(kSnapshotMissing) for unknown ids.
  const SingleTierSnapshot& fetch_single_tier(u64 file_id) const;

  /// Ladder read path for a tiered artifact: first arms the at-rest
  /// corruption sites (which may damage the stored blob, deterministically),
  /// then resolves the id. Throws toss::Error(kSnapshotMissing) for unknown
  /// or quarantined ids. The caller verifies content via verify_tiered().
  const TieredSnapshot& fetch_tiered(u64 file_id);

  /// Content + structure verification of a stored tiered artifact:
  /// kSnapshotMissing for unknown/quarantined ids, kSnapshotCorrupted with
  /// the first violation otherwise. A clean result is cached per damage
  /// epoch: every path that can damage the blob (the fetch_tiered fault
  /// sites, corrupt_tiered_page, truncate_tiered) and quarantine drop it,
  /// so the checksums are recomputed only on the first verify after a put
  /// or a damage. Checked builds recompute them on every call.
  Result<void> verify_tiered(u64 file_id) const;

  /// Bytes a restore of this snapshot id pins resident, split by tier.
  /// Tiered ids (any alias) report the per-tier file sizes — "fast" is the
  /// rank-0 file, "slow" everything below it; single-tier ids pin the
  /// whole image in DRAM; unknown ids report 0. Used by the overload
  /// arbiter's fleet accounting.
  u64 resident_fast_bytes(u64 file_id) const;
  u64 resident_slow_bytes(u64 file_id) const;
  /// Bytes resident in one specific ladder rank (metrics rollups).
  u64 resident_tier_bytes(u64 file_id, size_t rank) const;

  /// Mark a tiered artifact unreadable (checksum failure). Idempotent.
  void quarantine_tiered(u64 file_id);
  bool is_quarantined(u64 file_id) const;
  u64 quarantine_count() const { return quarantine_count_; }

  /// Fault/test hooks: damage a stored tiered artifact in place (checksums
  /// go stale, which verify_tiered detects). Return false for unknown ids.
  bool corrupt_tiered_page(u64 file_id, u64 fast_file_page);
  bool truncate_tiered(u64 file_id);

  HostPageCache& page_cache() { return page_cache_; }
  const HostPageCache& page_cache() const { return page_cache_; }

  /// Methodology step: drop all cached snapshot pages.
  void drop_caches() { page_cache_.drop(); }

  /// The lane's Zipf-weight memo: every MicroVm on this store expands its
  /// skewed bursts with it, so each weight is computed once per lane.
  ZipfWeights& zipf_weights() { return zipf_weights_; }

  /// Sequential read of `bytes` from disk (or zero if fully cached — callers
  /// check the cache themselves for partial hits).
  Nanos seq_read_ns(u64 bytes) const;

  const SystemConfig& config() const { return *cfg_; }

 private:
  /// A stored tiered artifact plus its verify cache. `verified` is true
  /// once verify_tiered found the blob intact in the current damage epoch;
  /// every damage path and quarantine clears it.
  struct TieredEntry {
    explicit TieredEntry(TieredSnapshot s) : snapshot(std::move(s)) {}
    TieredSnapshot snapshot;
    mutable bool verified = false;
  };

  /// Resolve a tiered id through the deep-rank -> rank-0 alias map.
  u64 resolve_tiered(u64 file_id) const;
  /// Mutable access for the damage paths: starts a new damage epoch by
  /// dropping the artifact's cached verify result.
  TieredSnapshot* find_tiered_for_damage(u64 file_id);
  /// Entry for a tiered id, nullptr for unknown or quarantined ids.
  const TieredEntry* get_tiered_entry(u64 file_id) const;

  const SystemConfig* cfg_;
  FaultInjector* faults_ = nullptr;
  u64 next_file_id_ = 1;
  u64 quarantine_count_ = 0;
  // Ordered containers on purpose: the store sits in the include closure
  // of the metrics ledger, and any future walk over snapshots (resident-
  // byte rollups, eviction sweeps) must visit ids in a run-stable order.
  // Hash-map iteration order is not, and the det-unordered-iter lint rule
  // would reject it; id-ordered maps are deterministic by construction.
  std::map<u64, SingleTierSnapshot> single_tier_;
  std::map<u64, TieredEntry> tiered_;
  std::map<u64, u64> tiered_alias_;  ///< deep-rank id -> rank-0 id
  std::set<u64> quarantined_;        ///< rank-0 ids
  HostPageCache page_cache_;
  ZipfWeights zipf_weights_;
};

}  // namespace toss
