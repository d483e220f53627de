#include "core/cluster_epoch.hpp"

#include <cstdlib>

namespace hcsim {

namespace {

/// -1 = follow the environment; 0/1 = forced by epoch_set_enabled.
int g_epoch_override = -1;

bool env_epoch_enabled() {
  static const bool enabled = [] {
    const char* v = std::getenv("HCSIM_EPOCH");
    return v == nullptr || (v[0] != '0' || v[1] != '\0');
  }();
  return enabled;
}

}  // namespace

bool epoch_enabled_default() {
  const int o = g_epoch_override;
  return o < 0 ? env_epoch_enabled() : o != 0;
}

void epoch_set_enabled(bool on) { g_epoch_override = on ? 1 : 0; }
void epoch_reset_enabled() { g_epoch_override = -1; }

void ClusterEpoch::init(unsigned issue_width, unsigned queue_size,
                        unsigned copy_ports, Tick cycle_ticks) {
  HCSIM_CHECK(issue_width > 0 && issue_width < 256,
              "ClusterEpoch issue width out of range");
  HCSIM_CHECK(queue_size > 0, "ClusterEpoch queue size must be positive");
  HCSIM_CHECK(cycle_ticks > 0, "ClusterEpoch cycle_ticks must be positive");
  cycle_ticks_ = cycle_ticks;
  pow2_ = std::has_single_bit(static_cast<u64>(cycle_ticks_));
  shift_ = static_cast<unsigned>(std::countr_zero(static_cast<u64>(cycle_ticks_)));
  size_ = queue_size;
  qring_.assign(kInitialQueueCycles, 0);
  qocc_.assign(kInitialQueueCycles / 64, 0);
  qmask_ = kInitialQueueCycles - 1;
  issue_.width = issue_width;
  issue_.used.assign(kWindowCycles, 0);
  issue_.full.assign(kWindowCycles / 64, 0);
  copy_.width = copy_ports;
  if (copy_ports > 0) {
    copy_.used.assign(kWindowCycles, 0);
    copy_.full.assign(kWindowCycles / 64, 0);
  }
}

u64 ClusterEpoch::first_nonfull(const SlotRing& r, u64 cycle) const {
  // kWindowCycles is a multiple of 64, so consecutive cycles within one
  // bitmap word are consecutive ring positions: scan a word at a time.
  const u64 end = r.frontier + 1;
  u64 c = cycle;
  while (c < end) {
    const u64 pos = c & kMask;
    const u64 free_bits = ~r.full[pos >> 6] >> (pos & 63);
    if (free_bits != 0) {
      const u64 cand = c + static_cast<u64>(std::countr_zero(free_bits));
      return cand < end ? cand : end;
    }
    c += 64 - (pos & 63);
  }
  return end;
}

void ClusterEpoch::gc_ring(SlotRing& r, u64 new_base) {
  if (new_base <= r.base) return;
  if (new_base - r.base >= kWindowCycles) {
    std::fill(r.used.begin(), r.used.end(), u8{0});
    std::fill(r.full.begin(), r.full.end(), u64{0});
  } else {
    clear_slot_cycles(r.used, r.full, r.base, new_base);
  }
  r.base = new_base;
}

SlotRangeProbe ClusterEpoch::free_issue_slot_in(Tick from, Tick until) const {
  SlotRangeProbe p;
  if (until <= from) return p;
  u64 c0 = to_cycle(from);
  const u64 c1 = to_cycle(until - 1);  // last cycle overlapping the range
  if (c0 < issue_.base) {
    p.truncated = true;
    c0 = issue_.base;
    if (c0 > c1) return p;
  }
  if (c1 > issue_.frontier) {
    p.free = true;  // cycles past the frontier are empty
    return p;
  }
  p.free = first_nonfull(issue_, c0) <= c1;
  return p;
}

u64 ClusterEpoch::next_occupied(u64 from) const {
  u64 c = from;
  while (c < qtail_) {
    const u64 pos = c & qmask_;
    const u64 bits = qocc_[pos >> 6] >> (pos & 63);
    if (bits != 0) {
      const u64 cand = c + static_cast<u64>(std::countr_zero(bits));
      return cand < qtail_ ? cand : kNoCycle;
    }
    c += 64 - (pos & 63);
  }
  return kNoCycle;
}

void ClusterEpoch::drain_cycles(u64 target_cycle) {
  u64 c = qnext_;  // first occupied bucket; caller ensured c < target_cycle
  do {
    const u64 pos = c & qmask_;
    live_ -= qring_[pos];
    qring_[pos] = 0;
    qocc_[pos >> 6] &= ~(u64{1} << (pos & 63));
    if (live_ == 0) {
      c = kNoCycle;
      break;
    }
    c = next_occupied(c + 1);
  } while (c < target_cycle);
  qnext_ = c;
  qdrained_ = target_cycle;
}

void ClusterEpoch::grow_queue(u64 cycle) {
  u64 cap = qmask_ + 1;
  while (cycle - qdrained_ >= cap) cap *= 2;
  std::vector<u32> bigger(cap, 0);
  std::vector<u64> bits(cap / 64, 0);
  const u64 new_mask = cap - 1;
  for (u64 c = qdrained_; c < qtail_; ++c) {
    const u32 n = qring_[c & qmask_];
    if (n) {
      bigger[c & new_mask] = n;
      bits[(c & new_mask) >> 6] |= u64{1} << (c & 63);
    }
  }
  qring_ = std::move(bigger);
  qocc_ = std::move(bits);
  qmask_ = new_mask;
}

Tick ClusterEpoch::earliest_dispatch_full() const {
  // QueueTracker::earliest_dispatch_full in the cycle domain: find the
  // bucket whose departures free the (live_ - size_ + 1)-th entry, with the
  // (full_at_cycle_, full_slack_) cache amortizing repeated probes while
  // the queue stays saturated. Invalidation matches the tick-domain rule:
  // a drain past the cached answer makes head_tick_ exceed its tick.
  if (head_tick_ > from_cycle(full_at_cycle_)) {
    u64 need = live_ - size_ + 1;
    u64 c = qnext_;  // live_ >= size_ >= 1, so an occupied bucket exists
    for (;;) {
      HCSIM_CHECK(c != kNoCycle, "ClusterEpoch: live entries unaccounted for");
      const u64 n = qring_[c & qmask_];
      if (n >= need) {
        full_at_cycle_ = c;
        full_slack_ = static_cast<i64>(n - need);
        return from_cycle(c);
      }
      need -= n;
      c = next_occupied(c + 1);
    }
  }
  while (full_slack_ < 0) {
    const u64 c = next_occupied(full_at_cycle_ + 1);
    HCSIM_CHECK(c != kNoCycle, "ClusterEpoch: live entries unaccounted for");
    full_slack_ += static_cast<i64>(qring_[c & qmask_]);
    full_at_cycle_ = c;
  }
  return from_cycle(full_at_cycle_);
}

}  // namespace hcsim
