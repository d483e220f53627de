// hcsim — per-cluster issue-slot and queue-occupancy bookkeeping.
//
// The pipeline processes µops in program order but µops issue out of order;
// these helpers track how many issue slots each cluster-cycle has consumed
// and which issue-queue entries are still occupied, so resource contention
// is modeled without a tick-by-tick wakeup/select loop.
//
// Both structures are garbage-collected ring buffers: the per-µop hot path
// (core/pipeline.cpp) calls reserve()/earliest_dispatch()/has_free_slot()
// for every dynamic µop, so all operations are allocation-free and O(1)
// amortized. The previous std::set/std::multiset ledgers paid a node
// allocation plus a tree rebalance per µop.
//
// The per-µop entry points (reserve, earliest_dispatch, add, drain) are
// defined inline here with their common case open-coded — tick->cycle
// division is a shift whenever cycle_ticks is a power of two (1 and 2 in
// every stock configuration; the clock-ratio ablation's 3 falls back to a
// real divide) — while the cold paths (bitmap scans, GC, growth) stay in
// slot_schedule.cpp.
#pragma once

#include <bit>
#include <vector>

#include "util/log.hpp"
#include "util/types.hpp"

namespace hcsim {

/// Sliding-window length of a slot ledger in cycles. Shared by SlotSchedule
/// and the fused ClusterEpoch engine (core/cluster_epoch.hpp) so both report
/// the same GC horizon — range probes truncate identically. Must be a power
/// of two and a multiple of 64; 64k cycles is far beyond any lookback the
/// pipeline performs.
inline constexpr u64 kSlotWindowCycles = u64{1} << 16;

/// Window GC of a slot ring (kSlotWindowCycles per-cycle counts plus their
/// full-cycle bitmap), shared by SlotSchedule and ClusterEpoch: zero the
/// counts of cycles [from, to) and clear their full bits a bitmap word at a
/// time. Requires from < to and to - from < kSlotWindowCycles.
void clear_slot_cycles(std::vector<u8>& used, std::vector<u64>& full, u64 from, u64 to);

/// Result of a free-slot range probe (the NREADY imbalance metric).
struct SlotRangeProbe {
  bool free = false;
  bool truncated = false;
};

/// Issue-slot ledger: at most `width` µops may issue per cluster cycle.
/// Cycles are cluster-local (tick / cycle_ticks).
///
/// Storage is a ring of per-cycle occupancy counts over a sliding window of
/// kWindowCycles cycles ending at the highest cycle ever reserved (the
/// frontier). Cycles above the frontier are implicitly empty; cycles that
/// slid out of the window are garbage-collected and report "no free slot",
/// exactly like the old ledger's GC horizon. A parallel full-cycle bitmap
/// lets reserve() and range probes skip saturated regions 64 cycles at a
/// time.
class SlotSchedule {
 public:
  SlotSchedule(unsigned width, Tick cycle_ticks)
      : width_(width),
        cycle_ticks_(cycle_ticks),
        used_(kWindowCycles, 0),
        full_(kWindowCycles / 64, 0) {
    HCSIM_CHECK(width_ > 0 && width_ < 256, "SlotSchedule width out of range");
    HCSIM_CHECK(cycle_ticks_ > 0, "SlotSchedule cycle_ticks must be positive");
    pow2_ = std::has_single_bit(static_cast<u64>(cycle_ticks_));
    shift_ = static_cast<unsigned>(std::countr_zero(static_cast<u64>(cycle_ticks_)));
  }

  /// Reserve the first free slot at a cycle whose start is >= `earliest`
  /// tick. Returns the tick at which the µop issues (start of that cycle).
  Tick reserve(Tick earliest) {
    u64 cycle = to_cycle(earliest);
    if (cycle < base_) cycle = base_;
    if (cycle <= frontier_ && used_[cycle & kMask] >= width_) {
      // Saturated start cycle. In steady state the very next cycle has
      // room (reservations trail the frontier closely); fall back to the
      // bitmap scan only when it is saturated too.
      const u64 nxt = cycle + 1;
      if (nxt > frontier_ || used_[nxt & kMask] < width_)
        cycle = nxt;
      else
        cycle = first_nonfull(nxt);
    }
    if (cycle >= base_ + kWindowCycles) [[unlikely]] {
      // In steady state the frontier advances one cycle at a time, so the
      // window slides by one: open-code that step, call out for jumps.
      if (cycle == base_ + kWindowCycles) {
        used_[base_ & kMask] = 0;
        full_[(base_ & kMask) >> 6] &= ~(u64{1} << (base_ & 63));
        ++base_;
      } else {
        gc_to(cycle - kWindowCycles + 1);
      }
    }
    u8& used = used_[cycle & kMask];
    ++used;
    if (used == width_) full_[(cycle & kMask) >> 6] |= u64{1} << (cycle & 63);
    if (cycle > frontier_) frontier_ = cycle;
    ++reservations_;
    return from_cycle(cycle);
  }

  /// True if cycle containing `tick` still has a free slot (no reservation).
  bool has_free_slot(Tick tick) const;

  /// Range probe for the NREADY imbalance metric: does any cycle overlapping
  /// the tick interval [from, until) have a free slot? `truncated` reports
  /// that part of the interval predates the GC horizon and was not probed.
  using RangeProbe = SlotRangeProbe;
  RangeProbe free_slot_in(Tick from, Tick until) const;

  Tick cycle_ticks() const { return cycle_ticks_; }
  u64 reservations() const { return reservations_; }
  /// Oldest cycle still tracked (cycles below were garbage-collected).
  u64 gc_horizon_cycle() const { return base_; }

 private:
  static constexpr u64 kWindowCycles = kSlotWindowCycles;
  static constexpr u64 kMask = kWindowCycles - 1;

  u64 to_cycle(Tick t) const { return pow2_ ? (t >> shift_) : (t / cycle_ticks_); }
  Tick from_cycle(u64 c) const { return pow2_ ? (c << shift_) : (c * cycle_ticks_); }

  unsigned slot(u64 cycle) const { return used_[cycle & kMask]; }
  void gc_to(u64 new_base);
  /// First cycle >= `cycle` with a free slot; `frontier_ + 1` if every
  /// tracked cycle through the frontier is saturated. Requires
  /// base_ <= cycle <= frontier_.
  u64 first_nonfull(u64 cycle) const;

  unsigned width_;
  Tick cycle_ticks_;
  bool pow2_ = true;
  unsigned shift_ = 0;
  std::vector<u8> used_;   // per-cycle reservation counts (ring)
  std::vector<u64> full_;  // bitmap: cycle saturated (used == width)
  u64 base_ = 0;           // GC horizon: lowest cycle still tracked
  u64 frontier_ = 0;       // highest cycle ever reserved
  u64 reservations_ = 0;
};

/// In-order slot counter: behaviourally identical to SlotSchedule for
/// callers whose `reserve(earliest)` argument never precedes the previously
/// returned tick — the fetch and commit stages, which clamp each request to
/// their last result. Monotonicity collapses the ring + bitmap + GC to two
/// words of state: the current cycle and its occupancy.
class MonotonicSlots {
 public:
  MonotonicSlots(unsigned width, Tick cycle_ticks)
      : width_(width), cycle_ticks_(cycle_ticks) {
    HCSIM_CHECK(width_ > 0, "MonotonicSlots width must be positive");
    HCSIM_CHECK(cycle_ticks_ > 0, "MonotonicSlots cycle_ticks must be positive");
    pow2_ = std::has_single_bit(static_cast<u64>(cycle_ticks_));
    shift_ = static_cast<unsigned>(std::countr_zero(static_cast<u64>(cycle_ticks_)));
  }

  /// First free slot at a cycle whose start is >= `earliest`. Precondition:
  /// `earliest` is >= the tick returned by the previous reserve() (which is
  /// what makes "the current cycle or a later one" exhaustive).
  Tick reserve(Tick earliest) {
    const u64 cycle = pow2_ ? (earliest >> shift_) : (earliest / cycle_ticks_);
    if (cycle > cycle_) {
      cycle_ = cycle;
      used_ = 1;
    } else if (used_ < width_) {
      ++used_;
    } else {
      ++cycle_;
      used_ = 1;
    }
    return pow2_ ? (cycle_ << shift_) : (cycle_ * cycle_ticks_);
  }

 private:
  unsigned width_;
  Tick cycle_ticks_;
  bool pow2_ = true;
  unsigned shift_ = 0;
  u64 cycle_ = 0;
  unsigned used_ = 0;
};

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

}  // namespace hcsim
