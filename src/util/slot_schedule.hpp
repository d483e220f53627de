// hcsim — issue-slot bookkeeping.
//
// The pipeline processes µops in program order but µops issue out of order;
// these ledgers track how many slots each cycle of a resource has consumed,
// so contention is modeled without a tick-by-tick wakeup/select loop.
//
// SlotSchedule is the one slot ledger: the clusters' issue and copy slots
// (core/cluster_epoch.hpp) and the cache ports reserve() from it per µop, so
// it is a garbage-collected ring, allocation-free and O(1) amortized, with
// the common case inline (tick->cycle division is a shift for power-of-two
// cycle_ticks) and the cold paths in slot_schedule.cpp. MonotonicSlots is
// its special case for the in-order fetch, rename and commit stages.
#pragma once

#include <bit>
#include <vector>

#include "util/log.hpp"
#include "util/types.hpp"

namespace hcsim {

/// Sliding-window length of a SlotSchedule in cycles: the GC horizon below
/// which range probes report truncation. Must be a power of two and a
/// multiple of 64; 64k cycles is far beyond any lookback the pipeline
/// performs.
inline constexpr u64 kSlotWindowCycles = u64{1} << 16;

/// Window GC of a SlotSchedule ring (kSlotWindowCycles per-cycle counts
/// plus their full-cycle bitmap): zero the counts of cycles [from, to) and
/// clear their full bits a bitmap word at a time. Requires from < to and
/// to - from < kSlotWindowCycles.
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
  /// No ring allocated (ClusterEpoch::init assigns the real ledger later).
  SlotSchedule() = default;

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
  [[gnu::always_inline]] Tick reserve(Tick earliest) {
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

  /// Range probe for the NREADY imbalance metric: does any cycle overlapping
  /// the tick interval [from, until) have a free slot? `truncated` reports
  /// that part of the interval predates the GC horizon and was not probed.
  SlotRangeProbe free_slot_in(Tick from, Tick until) const;

  u64 reservations() const { return reservations_; }
  /// Oldest cycle still tracked (cycles below were garbage-collected).
  u64 gc_horizon_cycle() const { return base_; }

  /// The ledger's clock: the cycle holding tick `t`, the first tick of `c`.
  u64 to_cycle(Tick t) const { return pow2_ ? (t >> shift_) : (t / cycle_ticks_); }
  Tick from_cycle(u64 c) const { return pow2_ ? (c << shift_) : (c * cycle_ticks_); }

 private:
  static constexpr u64 kWindowCycles = kSlotWindowCycles;
  static constexpr u64 kMask = kWindowCycles - 1;

  void gc_to(u64 new_base);
  /// First cycle >= `cycle` with a free slot; `frontier_ + 1` if every
  /// tracked cycle through the frontier is saturated. Requires
  /// base_ <= cycle <= frontier_.
  u64 first_nonfull(u64 cycle) const;

  unsigned width_ = 0;
  Tick cycle_ticks_ = 1;
  bool pow2_ = true;
  unsigned shift_ = 0;
  std::vector<u8> used_;   // per-cycle reservation counts (ring)
  std::vector<u64> full_;  // bitmap: cycle saturated (used == width)
  u64 base_ = 0;           // GC horizon: lowest cycle still tracked
  u64 frontier_ = 0;       // highest cycle ever reserved
  u64 reservations_ = 0;
};

/// In-order slot counter: behaviourally identical to SlotSchedule as long as
/// no request lies in an earlier cycle than the previous request (checked on
/// every call). Then every cycle from the latest request's up to, but not
/// including, the last returned one is full and every later cycle is empty,
/// so the last returned cycle and its occupancy replace the ring. A request
/// may fall below the previously returned tick: the IR split path reserves
/// three more rename slots at the dispatch tick it was just given.
class MonotonicSlots {
 public:
  MonotonicSlots(unsigned width, Tick cycle_ticks)
      : width_(width), cycle_ticks_(cycle_ticks) {
    HCSIM_CHECK(width_ > 0, "MonotonicSlots width must be positive");
    HCSIM_CHECK(cycle_ticks_ > 0, "MonotonicSlots cycle_ticks must be positive");
    pow2_ = std::has_single_bit(static_cast<u64>(cycle_ticks_));
    shift_ = static_cast<unsigned>(std::countr_zero(static_cast<u64>(cycle_ticks_)));
  }

  /// First free slot at a cycle whose start is >= `earliest`. Aborts if
  /// `earliest` lies in an earlier cycle than the previous request did.
  [[gnu::always_inline]] Tick reserve(Tick earliest) {
    const u64 cycle = pow2_ ? (earliest >> shift_) : (earliest / cycle_ticks_);
    HCSIM_CHECK(cycle >= request_cycle_,
                "MonotonicSlots: request cycle below the previous request's");
    request_cycle_ = cycle;
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
  u64 request_cycle_ = 0;  // cycle of the previous request
  u64 cycle_ = 0;          // cycle of the previous result
  unsigned used_ = 0;      // slots taken in cycle_
};

}  // namespace hcsim
