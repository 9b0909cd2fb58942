#include "vmm/guest_memory.hpp"

namespace toss {

GuestMemory::GuestMemory(u64 bytes) : versions_(pages_for_bytes(bytes), 0) {}

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
