#include "mem/cache.hpp"

#include <algorithm>
#include <bit>

#include "util/log.hpp"

namespace hcsim {

std::string cache_config_error(const CacheConfig& cfg) {
  if (!std::has_single_bit(cfg.line_bytes)) return "line_bytes must be a power of two";
  if (cfg.ways == 0) return "ways must be positive";
  const u32 lines_total = cfg.size_bytes / cfg.line_bytes;
  // The tag array holds one u64 per line; 2^20 lines is 16x Table 1's UL1.
  if (lines_total > (1u << 20)) return "size_bytes / line_bytes must be at most 2^20 lines";
  if (lines_total < cfg.ways) return "size_bytes is smaller than one set";
  const u32 sets = lines_total / cfg.ways;
  if (!std::has_single_bit(sets))
    return "size_bytes / (line_bytes * ways) sets must be a power of two";
  if (std::countr_zero(cfg.line_bytes) + std::countr_zero(sets) >= 32)
    return "size_bytes covers the whole 32-bit address space";
  return "";
}

Cache::Cache(const CacheConfig& cfg) : cfg_(cfg) {
  const std::string error = cache_config_error(cfg_);
  HCSIM_CHECK(error.empty(), cfg_.name + ": " + error);
  num_sets_ = cfg_.size_bytes / cfg_.line_bytes / cfg_.ways;
  ways_ = cfg_.ways;
  line_shift_ = static_cast<unsigned>(std::countr_zero(cfg_.line_bytes));
  tag_shift_ = line_shift_ + static_cast<unsigned>(std::countr_zero(num_sets_));
  stamp_bits_ = 64 - (32 - tag_shift_);
  stamp_mask_ = (u64{1} << stamp_bits_) - 1;
  ways_data_.assign(static_cast<std::size_t>(num_sets_) * ways_, 0);
}

bool Cache::probe(u32 addr) const {
  const std::size_t base = static_cast<std::size_t>(set_of(addr)) * ways_;
  const u64 tagged = static_cast<u64>(tag_of(addr)) << stamp_bits_;
  for (u32 w = 0; w < ways_; ++w) {
    const u64 e = ways_data_[base + w];
    if ((e & ~stamp_mask_) == tagged && (e & stamp_mask_) != 0) return true;
  }
  return false;
}

void Cache::invalidate_all() {
  // Stamp 0 marks a way invalid; the tag bits are unreachable behind it.
  std::fill(ways_data_.begin(), ways_data_.end(), 0);
}

}  // namespace hcsim
