// Guest physical memory model.
//
// The simulator does not store real guest bytes; it stores a 32-bit content
// version per page. Workload writes bump versions, snapshots copy them, and
// restores must reproduce them exactly — giving the test suite a cheap but
// strict data-integrity oracle for the snapshot/tiering path.
#pragma once

#include <vector>

#include "util/units.hpp"

namespace toss {

class GuestMemory {
 public:
  explicit GuestMemory(u64 bytes);

  u64 num_pages() const { return static_cast<u64>(versions_.size()); }
  u64 num_bytes() const { return bytes_for_pages(num_pages()); }

  u32 version(u64 page) const { return versions_[page]; }
  void set_version(u64 page, u32 v) { versions_[page] = v; }
  /// Copy `count` versions from `src` onto pages [page, page + count).
  void set_versions(u64 page, const u32* src, u64 count);
  void bump_version(u64 page) { ++versions_[page]; }

  const std::vector<u32>& versions() const { return versions_; }

  bool operator==(const GuestMemory&) const = default;

 private:
  std::vector<u32> versions_;
};

/// FNV-1a over all page versions — the page-version oracle the chaos suite
/// compares against the authoritative snapshot contents to prove that no
/// recovered invocation ever observed wrong memory.
u64 hash_memory(const GuestMemory& memory);

/// The same hash over a bare page-version vector: hash_versions(m.versions())
/// == hash_memory(m), so a snapshot can hash its stored versions without
/// materializing a GuestMemory first.
u64 hash_versions(const std::vector<u32>& versions);

}  // namespace toss
