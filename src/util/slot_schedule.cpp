#include "util/slot_schedule.hpp"

#include <algorithm>
#include <cstring>

namespace hcsim {

namespace {

/// Clear ring positions [p, q), 0 <= p < q <= kSlotWindowCycles.
void clear_positions(u8* used, u64* full, u64 p, u64 q) {
  std::memset(used + p, 0, q - p);
  const u64 w0 = p >> 6, w1 = (q - 1) >> 6;
  const u64 first = ~u64{0} << (p & 63);             // bits >= p in word w0
  const u64 last = ~u64{0} >> (63 - ((q - 1) & 63));  // bits <= q - 1 in word w1
  if (w0 == w1) {
    full[w0] &= ~(first & last);
    return;
  }
  full[w0] &= ~first;
  std::fill(full + w0 + 1, full + w1, u64{0});
  full[w1] &= ~last;
}

}  // namespace

void clear_slot_cycles(std::vector<u8>& used, std::vector<u64>& full, u64 from, u64 to) {
  const u64 p = from & (kSlotWindowCycles - 1);
  const u64 n = to - from;
  const u64 head = std::min(n, kSlotWindowCycles - p);  // positions before the ring end
  clear_positions(used.data(), full.data(), p, p + head);
  if (head < n) clear_positions(used.data(), full.data(), 0, n - head);
}

// --- SlotSchedule -----------------------------------------------------------

void SlotSchedule::gc_to(u64 new_base) {
  if (new_base <= base_) return;
  if (new_base - base_ >= kWindowCycles) {
    std::fill(used_.begin(), used_.end(), u8{0});
    std::fill(full_.begin(), full_.end(), u64{0});
  } else {
    clear_slot_cycles(used_, full_, base_, new_base);
  }
  base_ = new_base;
}

u64 SlotSchedule::first_nonfull(u64 cycle) const {
  // kWindowCycles is a multiple of 64, so consecutive cycles within one
  // bitmap word are consecutive ring positions: scan a word at a time.
  const u64 end = frontier_ + 1;
  u64 c = cycle;
  while (c < end) {
    const u64 pos = c & kMask;
    const u64 free_bits = ~full_[pos >> 6] >> (pos & 63);
    if (free_bits != 0) {
      const u64 cand = c + static_cast<u64>(std::countr_zero(free_bits));
      return cand < end ? cand : end;
    }
    c += 64 - (pos & 63);
  }
  return end;
}

SlotRangeProbe SlotSchedule::free_slot_in(Tick from, Tick until) const {
  SlotRangeProbe p;
  if (until <= from) return p;
  u64 c0 = to_cycle(from);
  const u64 c1 = to_cycle(until - 1);  // last cycle overlapping the range
  if (c0 < base_) {
    p.truncated = true;
    c0 = base_;
    if (c0 > c1) return p;
  }
  if (c1 > frontier_) {
    p.free = true;  // cycles past the frontier are empty
    return p;
  }
  p.free = first_nonfull(c0) <= c1;
  return p;
}

}  // namespace hcsim
