// hcsim tests — per-tick issue-queue occupancy tracker, the reference model
// for ClusterEpoch's cycle-bucketed queue ledger (src/core/cluster_epoch.hpp).
//
// It ledgers departures per tick instead of per cycle bucket, and it drains
// on every query instead of deferring the drain until the queue looks full:
// an independent implementation of the same semantics, which
// test_cluster_epoch.cpp's differential fuzz checks the engine against.
#pragma once

#include <bit>
#include <vector>

#include "util/log.hpp"
#include "util/types.hpp"

namespace hcsim {

/// Issue-queue occupancy tracker: entries are held from dispatch until
/// issue. `earliest_dispatch` computes when a new µop can enter given the
/// queue size, and `occupancy` supports the IR imbalance trigger.
///
/// Occupancy mutates only through add() and the lazy drain of entries whose
/// issue tick has passed — earliest_dispatch() is a pure query. (The old
/// multiset version erased the earliest occupant inside earliest_dispatch,
/// so a caller that probed without dispatching — e.g. the flush/re-steer
/// path running exec_in twice — silently freed a queue slot.)
class QueueTracker {
 public:
  explicit QueueTracker(unsigned size)
      : size_(size),
        ring_(kInitialTicks, 0),
        occ_(kInitialTicks / 64, 0),
        mask_(kInitialTicks - 1) {
    HCSIM_CHECK(size_ > 0, "QueueTracker size must be positive");
  }

  /// Given that the µop wants to dispatch at `tick`, return the earliest
  /// tick >= `tick` when the queue has a free entry. Pure query: the entry
  /// is recorded only by the subsequent add().
  Tick earliest_dispatch(Tick tick) {
    drain(tick);
    if (live_ < size_) [[likely]] return tick;
    return earliest_dispatch_full();
  }

  /// Record a dispatched µop that will issue (leave the queue) at `issue`.
  void add(Tick issue) {
    // An issue tick at or below the drain head already "left" the queue: by
    // the time any later query observes the tracker, its drain would have
    // retired this entry anyway.
    if (issue < head_) [[unlikely]] return;
    if (issue - head_ > mask_) [[unlikely]] grow(issue);
    const u64 pos = issue & mask_;
    if (ring_[pos]++ == 0) occ_[pos >> 6] |= u64{1} << (pos & 63);
    ++live_;
    if (issue >= tail_) tail_ = issue + 1;
    // Queue-full cache: an add beyond the cached answer raises the required
    // departures without raising the departures available by then; an add at
    // or before it raises both equally.
    if (issue > full_at_) --full_slack_;
  }

  /// Occupancy as seen at tick `t` (after the lazy drain).
  unsigned occupancy(Tick t) {
    drain(t);
    return static_cast<unsigned>(live_);
  }

  unsigned size() const { return size_; }

 private:
  /// Initial ring span in ticks; must be a power of two and a multiple of
  /// 64 (the occupancy bitmap relies on word-contiguous positions). Grows
  /// by doubling when an issue tick lands beyond the window.
  static constexpr u64 kInitialTicks = u64{1} << 16;
  static_assert(kInitialTicks % 64 == 0);

  /// Retire entries with issue <= t. Empty queues only move the head.
  void drain(Tick t) {
    const Tick target = t + 1;
    if (target <= head_) return;
    if (live_ == 0) {
      head_ = target;
      return;
    }
    drain_slow(target);
  }

  void drain_slow(Tick target);
  Tick earliest_dispatch_full() const;  // the queue-full walk
  void grow(Tick issue);
  /// First tick >= `from` whose bucket is occupied; `tail_` if none.
  Tick next_occupied(Tick from) const;

  unsigned size_;
  std::vector<u32> ring_;  // per-tick count of entries issuing at that tick
  std::vector<u64> occ_;   // bitmap: bucket non-empty (skip 64 ticks at a time)
  u64 mask_;
  Tick head_ = 0;  // every tick < head_ has been drained
  Tick tail_ = 0;  // one past the largest issue tick recorded
  u64 live_ = 0;   // entries currently in the queue

  // Queue-full answer cache (see earliest_dispatch_full): `full_at_` is the
  // last computed answer and `full_slack_` is (departures by full_at_) minus
  // (departures required for a free entry). The answer only ever moves
  // forward, so repairs resume from the cache instead of rewalking from
  // head_. Mutable: the cache is invisible to the query semantics.
  mutable Tick full_at_ = 0;
  mutable i64 full_slack_ = -1;
};

inline Tick QueueTracker::next_occupied(Tick from) const {
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

inline void QueueTracker::drain_slow(Tick target) {
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

inline void QueueTracker::grow(Tick issue) {
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

inline Tick QueueTracker::earliest_dispatch_full() const {
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
