#include "mem/page_cache.hpp"

#include <bit>

namespace toss {

namespace {
constexpr u64 kWordBits = 64;
}  // namespace

HostPageCache::HostPageCache(u64 readahead_pages)
    : readahead_(readahead_pages == 0 ? 1 : readahead_pages) {}

bool HostPageCache::contains(u64 file_id, u64 page_index) const {
  auto it = files_.find(file_id);
  if (it == files_.end()) return false;
  const std::vector<u64>& words = it->second;
  const u64 w = page_index / kWordBits;
  return w < words.size() && ((words[w] >> (page_index % kWordBits)) & 1) != 0;
}

u64 HostPageCache::set_range(u64 file_id, u64 begin, u64 count) {
  if (count == 0) return 0;
  std::vector<u64>& words = files_[file_id];
  const u64 end = begin + count;
  const u64 first_word = begin / kWordBits;
  const u64 last_word = (end - 1) / kWordBits;
  if (words.size() <= last_word) words.resize(last_word + 1, 0);
  u64 added = 0;
  for (u64 w = first_word; w <= last_word; ++w) {
    const u64 lo = w == first_word ? begin % kWordBits : 0;
    const u64 hi = w == last_word ? (end - 1) % kWordBits + 1 : kWordBits;
    const u64 ones = hi - lo == kWordBits ? ~u64{0} : (u64{1} << (hi - lo)) - 1;
    const u64 mask = ones << lo;
    added += static_cast<u64>(std::popcount(mask & ~words[w]));
    words[w] |= mask;
  }
  cached_ += added;
  return added;
}

u64 HostPageCache::fill(u64 file_id, u64 page_index) {
  return set_range(file_id, page_index, readahead_);
}

void HostPageCache::fill_one(u64 file_id, u64 page_index) {
  set_range(file_id, page_index, 1);
}

u64 HostPageCache::fill_range(u64 file_id, u64 page_begin, u64 page_count) {
  return set_range(file_id, page_begin, page_count);
}

void HostPageCache::drop() {
  files_.clear();
  cached_ = 0;
}

}  // namespace toss
