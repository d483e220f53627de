// hcsim — set-associative cache timing model.
//
// Timing only: the simulator's data values come from the trace, so caches
// track presence (tags + LRU) and charge latencies, which is exactly what a
// trace-driven performance model needs.
//
// Each way is one packed u64: the tag in the high bits, the LRU stamp in
// the low bits, so a set probe walks a single contiguous run (one cache
// line for an 8-way set) instead of separate tag and stamp arrays. The
// access clock pre-increments and is masked to the stamp field, so a live
// stamp is never 0 and stamp==0 marks a never-filled (or invalidated) way.
// The min-stamp victim scan then picks the first invalid way when one
// exists (all live stamps are larger), which is exactly the victim the
// explicit valid-flag walk chose. Addresses are 32-bit, so the tag needs
// 32 - tag_shift_ bits and the stamp field gets the rest — at least 44
// bits for any plausible geometry, far beyond any run length here.
// Set/tag extraction is shift/mask: line size and set count are checked
// powers of two at construction.
#pragma once

#include <string>
#include <vector>

#include "util/stats.hpp"
#include "util/types.hpp"

namespace hcsim {

struct CacheConfig {
  std::string name = "cache";
  u32 size_bytes = 32 * 1024;
  u32 line_bytes = 64;
  u32 ways = 8;
  u32 latency_cycles = 3;  // hit latency in wide cycles
  u32 ports = 2;           // accesses per wide cycle
};

/// The first geometry rule `cfg` breaks, naming the field, or "" if none.
/// Cache's constructor aborts on it; machine_config_error reports it.
std::string cache_config_error(const CacheConfig& cfg);

class Cache {
 public:
  explicit Cache(const CacheConfig& cfg);

  /// Probe + allocate-on-miss. Returns true on hit. Runs for every load and
  /// store on the per-µop hot path — defined inline.
  bool access(u32 addr) {
    const std::size_t base = static_cast<std::size_t>(set_of(addr)) * ways_;
    u64* set = &ways_data_[base];
    const u64 tagged = static_cast<u64>(tag_of(addr)) << stamp_bits_;
    const u64 stamp = ++access_clock_ & stamp_mask_;

    for (u32 w = 0; w < ways_; ++w) {
      const u64 e = set[w];
      if ((e & ~stamp_mask_) == tagged && (e & stamp_mask_) != 0) {
        set[w] = tagged | stamp;
        hits_.add(true);
        return true;
      }
    }
    // Miss: fill the min-stamp way (first on ties); invalid ways carry
    // stamp 0 and therefore win, replicating "first invalid way, else LRU".
    u32 victim = 0;
    u64 best = set[0] & stamp_mask_;
    for (u32 w = 1; w < ways_; ++w) {
      const u64 s = set[w] & stamp_mask_;
      if (s < best) {
        best = s;
        victim = w;
      }
    }
    set[victim] = tagged | stamp;
    hits_.add(false);
    return false;
  }

  /// Probe without allocation.
  bool probe(u32 addr) const;

  void invalidate_all();

  const CacheConfig& config() const { return cfg_; }
  const Ratio& hit_ratio() const { return hits_; }
  u64 accesses() const { return hits_.den; }

 private:
  u32 set_of(u32 addr) const { return (addr >> line_shift_) & (num_sets_ - 1); }
  u32 tag_of(u32 addr) const { return addr >> tag_shift_; }

  CacheConfig cfg_;
  u32 num_sets_;
  u32 ways_;
  unsigned line_shift_ = 0;  // log2(line_bytes)
  unsigned tag_shift_ = 0;   // log2(line_bytes * num_sets_)
  unsigned stamp_bits_ = 0;  // 64 - tag bits
  u64 stamp_mask_ = 0;
  std::vector<u64> ways_data_;  // (tag << stamp_bits_) | stamp, row-major
  u64 access_clock_ = 0;
  Ratio hits_;
};

}  // namespace hcsim
