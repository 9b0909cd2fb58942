#include "vmm/snapshot.hpp"

#include "util/contracts.hpp"

namespace toss {

SingleTierSnapshot::SingleTierSnapshot(u64 file_id, const GuestMemory& memory,
                                       VmState state)
    : file_id_(file_id),
      page_versions_(memory.versions()),
      vm_state_(state),
      content_hash_(hash_versions(page_versions_)) {}

GuestMemory SingleTierSnapshot::materialize() const {
  GuestMemory mem(memory_bytes());
  for (u64 p = 0; p < num_pages(); ++p) mem.set_version(p, page_versions_[p]);
  return mem;
}

u64 SingleTierSnapshot::content_hash() const {
  TOSS_ASSERT(content_hash_ == hash_memory(materialize()),
              "memoized snapshot hash diverged from its contents");
  return content_hash_;
}

}  // namespace toss
