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

bool SlotSchedule::has_free_slot(Tick tick) const {
  const u64 cycle = to_cycle(tick);
  if (cycle < base_) return false;
  if (cycle > frontier_) return true;
  return slot(cycle) < width_;
}

SlotSchedule::RangeProbe SlotSchedule::free_slot_in(Tick from, Tick until) const {
  RangeProbe p;
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

// --- QueueTracker -----------------------------------------------------------

Tick QueueTracker::next_occupied(Tick from) const {
  // The window is a multiple of 64 ticks, so positions within one bitmap
  // word are consecutive ticks: skip empty regions a word at a time.
  u64 c = from;
  while (c < tail_) {
    const u64 pos = c & mask_;
    const u64 bits = occ_[pos >> 6] >> (pos & 63);
    if (bits != 0) {
      const u64 cand = c + static_cast<u64>(std::countr_zero(bits));
      return cand < tail_ ? cand : tail_;
    }
    c += 64 - (pos & 63);
  }
  return tail_;
}

void QueueTracker::drain_slow(Tick target) {
  Tick c = head_;
  while (live_ > 0) {
    c = next_occupied(c);
    if (c >= target) break;
    const u64 pos = c & mask_;
    live_ -= ring_[pos];
    ring_[pos] = 0;
    occ_[pos >> 6] &= ~(u64{1} << (pos & 63));
    ++c;
  }
  head_ = target;
}

void QueueTracker::grow(Tick issue) {
  u64 cap = mask_ + 1;
  while (issue - head_ >= cap) cap *= 2;
  std::vector<u32> bigger(cap, 0);
  std::vector<u64> bits(cap / 64, 0);
  const u64 new_mask = cap - 1;
  for (Tick t = head_; t < tail_; ++t) {
    const u32 n = ring_[t & mask_];
    if (n) {
      bigger[t & new_mask] = n;
      bits[(t & new_mask) >> 6] |= u64{1} << (t & 63);
    }
  }
  ring_ = std::move(bigger);
  occ_ = std::move(bits);
  mask_ = new_mask;
}

Tick QueueTracker::earliest_dispatch_full() const {
  // Full: the dispatch must wait until enough occupants have issued that an
  // entry frees up. A pure query (live_ >= size_ >= 1 guarantees the walks
  // terminate), but amortized O(1) via the (full_at_, full_slack_) cache:
  //   - add(j <= full_at_) raises required and available departures equally;
  //   - add(j > full_at_) decrements the slack (see add());
  //   - a drain with head_ <= full_at_ removes k entries from both sides of
  //     the slack (all removed entries issue before head_), leaving it and
  //     the answer's minimality intact;
  //   - a drain past full_at_ invalidates the cache (head_ > full_at_).
  // The answer never moves backward under adds, so the slack repair resumes
  // the departure walk from the cache instead of restarting at head_.
  if (head_ > full_at_) {
    u64 need = live_ - size_ + 1;
    Tick c = head_;
    for (;;) {
      c = next_occupied(c);
      HCSIM_CHECK(c < tail_, "QueueTracker: live entries unaccounted for");
      const u64 n = ring_[c & mask_];
      if (n >= need) {
        full_at_ = c;
        full_slack_ = static_cast<i64>(n - need);
        return c;
      }
      need -= n;
      ++c;
    }
  }
  while (full_slack_ < 0) {
    const Tick c = next_occupied(full_at_ + 1);
    HCSIM_CHECK(c < tail_, "QueueTracker: live entries unaccounted for");
    full_slack_ += static_cast<i64>(ring_[c & mask_]);
    full_at_ = c;
  }
  return full_at_;
}

}  // namespace hcsim
