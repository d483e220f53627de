#include "core/cluster_epoch.hpp"

#include <limits>

namespace hcsim {

void ClusterEpoch::init(unsigned issue_width, unsigned queue_size,
                        unsigned copy_ports, Tick cycle_ticks) {
  HCSIM_CHECK(queue_size > 0, "ClusterEpoch queue size must be positive");
  HCSIM_CHECK(issue_width <= std::numeric_limits<u8>::max(),
              "ClusterEpoch issue width must fit a queue bucket");
  // The SlotSchedule constructors check the widths and cycle_ticks.
  issue_ = SlotSchedule(issue_width, cycle_ticks);
  copy_ = copy_ports > 0 ? SlotSchedule(copy_ports, cycle_ticks) : SlotSchedule();
  size_ = queue_size;
  qring_.assign(kInitialQueueCycles, 0);
  qocc_.assign(kInitialQueueCycles / 64, 0);
  qmask_ = kInitialQueueCycles - 1;
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
  std::vector<u8> bigger(cap, 0);
  std::vector<u64> bits(cap / 64, 0);
  const u64 new_mask = cap - 1;
  for (u64 c = qdrained_; c < qtail_; ++c) {
    const u8 n = qring_[c & qmask_];
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
  // Full: find the bucket whose departures free the (live_ - size_ + 1)-th
  // entry, with the (full_at_cycle_, full_slack_) cache amortizing repeated
  // probes while the queue stays saturated. An add beyond the cached answer
  // costs one unit of slack (see queue_add); a drain past it (head_tick_
  // beyond its tick) invalidates the cache.
  if (head_tick_ > issue_.from_cycle(full_at_cycle_)) {
    u64 need = live_ - size_ + 1;
    u64 c = qnext_;  // live_ >= size_ >= 1, so an occupied bucket exists
    for (;;) {
      HCSIM_CHECK(c != kNoCycle, "ClusterEpoch: live entries unaccounted for");
      const u64 n = qring_[c & qmask_];
      if (n >= need) {
        full_at_cycle_ = c;
        full_slack_ = static_cast<i64>(n - need);
        return issue_.from_cycle(c);
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
  return issue_.from_cycle(full_at_cycle_);
}

}  // namespace hcsim
