// Host page cache model.
//
// Snapshot files live on the simulated disk; the host page cache decides
// whether a guest page fault is satisfied from cached file pages (minor-ish
// cost) or requires a disk read (major fault). The evaluation methodology
// drops the cache between invocations, which `drop()` implements.
//
// Each file's cached pages are one bitmap (bit p of word p / 64), grown to
// the highest page cached so far. Callers cache pages inside a file (plus at
// most one readahead window past its end), so memory follows file sizes.
#pragma once

#include <unordered_map>
#include <vector>

#include "mem/tier.hpp"

namespace toss {

class HostPageCache {
 public:
  /// Readahead window in pages: a disk read of page p also caches
  /// [p, p + readahead). Linux default readahead is 128 KiB = 32 pages;
  /// this is what inflates mincore()-based working sets.
  explicit HostPageCache(u64 readahead_pages = 32);

  bool contains(u64 file_id, u64 page_index) const;

  /// Record that a page was read from disk; readahead neighbors become
  /// cached as well. Returns the number of pages newly cached (used by the
  /// mincore() working-set model).
  u64 fill(u64 file_id, u64 page_index);

  /// Cache exactly one page (random access defeats readahead).
  void fill_one(u64 file_id, u64 page_index);

  /// Cache pages [begin, begin+count) of a file (sequential prefetch).
  /// Returns how many of them were not cached before.
  u64 fill_range(u64 file_id, u64 page_begin, u64 page_count);

  /// `echo 3 > /proc/sys/vm/drop_caches` equivalent. Frees one bitmap per
  /// file: O(files), not O(pages cached).
  void drop();

  u64 cached_pages() const { return cached_; }
  u64 readahead_pages() const { return readahead_; }

 private:
  /// Cache pages [begin, begin+count) of a file; returns how many were
  /// not cached before.
  u64 set_range(u64 file_id, u64 begin, u64 count);

  u64 readahead_;
  u64 cached_ = 0;  ///< set bits across every file
  // Looked up by id only, never iterated, so the unordered map cannot leak
  // its order into a ledger.
  std::unordered_map<u64, std::vector<u64>> files_;
};

}  // namespace toss
