#include "damon/record.hpp"

#include <cstring>

namespace toss {

DamonRecord::DamonRecord(u64 num_pages, std::vector<DamonRegion> regions)
    : num_pages_(num_pages), regions_(std::move(regions)) {}

bool DamonRecord::valid() const {
  u64 next = 0;
  for (const auto& r : regions_) {
    if (r.page_begin != next || r.page_count == 0) return false;
    next = r.page_end();
  }
  return next == num_pages_;
}

PageAccessCounts DamonRecord::to_counts() const {
  PageAccessCounts counts(num_pages_);
  for (const auto& r : regions_)
    for (u64 p = r.page_begin; p < r.page_end(); ++p)
      counts.set(p, r.nr_accesses);
  return counts;
}

namespace {
constexpr u64 kMagic = 0x44414d4f4e524543ULL;  // "DAMONREC"
/// Serialized size of one DamonRegion: three u64 words.
constexpr u64 kRegionBytes = 24;

void put_u64(std::vector<u8>& out, u64 v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<u8>(v >> (8 * i)));
}

bool get_u64(const std::vector<u8>& in, size_t& pos, u64& v) {
  if (pos + 8 > in.size()) return false;
  v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<u64>(in[pos + i]) << (8 * i);
  pos += 8;
  return true;
}
}  // namespace

std::vector<u8> DamonRecord::serialize() const {
  std::vector<u8> out;
  out.reserve(24 + regions_.size() * kRegionBytes);
  put_u64(out, kMagic);
  put_u64(out, num_pages_);
  put_u64(out, regions_.size());
  for (const auto& r : regions_) {
    put_u64(out, r.page_begin);
    put_u64(out, r.page_count);
    put_u64(out, r.nr_accesses);
  }
  return out;
}

std::optional<DamonRecord> DamonRecord::deserialize(
    const std::vector<u8>& bytes) {
  size_t pos = 0;
  u64 magic = 0, num_pages = 0, count = 0;
  if (!get_u64(bytes, pos, magic) || magic != kMagic) return std::nullopt;
  if (!get_u64(bytes, pos, num_pages)) return std::nullopt;
  // Bound the count by the bytes left before reserving: a forged count
  // would otherwise throw std::length_error out of reserve().
  if (!get_u64(bytes, pos, count) ||
      count > (bytes.size() - pos) / kRegionBytes)
    return std::nullopt;
  std::vector<DamonRegion> regions;
  regions.reserve(count);
  for (u64 i = 0; i < count; ++i) {
    DamonRegion r;
    if (!get_u64(bytes, pos, r.page_begin) ||
        !get_u64(bytes, pos, r.page_count) ||
        !get_u64(bytes, pos, r.nr_accesses))
      return std::nullopt;
    regions.push_back(r);
  }
  DamonRecord rec(num_pages, std::move(regions));
  if (!rec.valid()) return std::nullopt;
  return rec;
}

}  // namespace toss
