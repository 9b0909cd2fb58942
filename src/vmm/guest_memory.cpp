#include "vmm/guest_memory.hpp"

#include <algorithm>

#include "util/contracts.hpp"

namespace toss {

GuestMemory::GuestMemory(u64 bytes) : versions_(pages_for_bytes(bytes), 0) {}

void GuestMemory::set_versions(u64 page, const u32* src, u64 count) {
  TOSS_REQUIRE(page + count <= num_pages());
  std::copy(src, src + count, versions_.begin() + static_cast<i64>(page));
}

u64 hash_memory(const GuestMemory& memory) {
  return hash_versions(memory.versions());
}

u64 hash_versions(const std::vector<u32>& versions) {
  u64 h = 0xcbf29ce484222325ULL;
  for (u32 v : versions) {
    for (int b = 0; b < 4; ++b) {
      h ^= (v >> (8 * b)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

}  // namespace toss
