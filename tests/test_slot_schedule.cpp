// Tests for the issue-slot ledger and issue-queue occupancy tracker.
#include <gtest/gtest.h>

#include "util/slot_schedule.hpp"

namespace hcsim {
namespace {

TEST(SlotSchedule, WidthPerCycleEnforced) {
  SlotSchedule s(/*width=*/2, /*cycle_ticks=*/1);
  EXPECT_EQ(s.reserve(0), 0u);
  EXPECT_EQ(s.reserve(0), 0u);
  EXPECT_EQ(s.reserve(0), 1u);  // third slot pushed to the next cycle
  EXPECT_EQ(s.reserve(0), 1u);
  EXPECT_EQ(s.reserve(0), 2u);
}

TEST(SlotSchedule, CycleAlignment) {
  SlotSchedule s(1, /*cycle_ticks=*/2);
  // tick 3 falls inside cycle 1 (ticks 2..3); reservation reports the cycle
  // start.
  EXPECT_EQ(s.reserve(3), 2u);
  EXPECT_EQ(s.reserve(3), 4u);
}

TEST(SlotSchedule, HolesCanBeFilled) {
  SlotSchedule s(1, 1);
  EXPECT_EQ(s.reserve(10), 10u);
  // An earlier request may use an earlier, still-free cycle.
  EXPECT_EQ(s.reserve(3), 3u);
}

TEST(SlotSchedule, HasFreeSlot) {
  SlotSchedule s(1, 1);
  EXPECT_TRUE(s.has_free_slot(5));
  (void)s.reserve(5);
  EXPECT_FALSE(s.has_free_slot(5));
  EXPECT_TRUE(s.has_free_slot(6));
}

TEST(SlotSchedule, ReservationCount) {
  SlotSchedule s(3, 2);
  for (int i = 0; i < 7; ++i) (void)s.reserve(0);
  EXPECT_EQ(s.reservations(), 7u);
}

TEST(SlotSchedule, HelperClockPacksTwicePerWideCycle) {
  // A helper cluster at 1-tick cycles fits 2x the issue opportunities of a
  // wide cluster at 2-tick cycles over the same interval.
  SlotSchedule helper(1, 1), wide(1, 2);
  int helper_in_4_ticks = 0, wide_in_4_ticks = 0;
  for (int i = 0; i < 16; ++i) {
    if (helper.reserve(0) < 4) ++helper_in_4_ticks;
    if (wide.reserve(0) < 4) ++wide_in_4_ticks;
  }
  EXPECT_EQ(helper_in_4_ticks, 4);
  EXPECT_EQ(wide_in_4_ticks, 2);
}

TEST(QueueTracker, OccupancyTracksIssueTimes) {
  QueueTracker q(4);
  q.add(/*issue=*/10);
  q.add(12);
  EXPECT_EQ(q.occupancy(5), 2u);
  EXPECT_EQ(q.occupancy(10), 1u);  // first entry left at tick 10
  EXPECT_EQ(q.occupancy(12), 0u);
}

TEST(QueueTracker, DispatchWaitsWhenFull) {
  QueueTracker q(2);
  q.add(100);
  q.add(200);
  // Queue full until tick 100; a dispatch at tick 5 must wait.
  EXPECT_EQ(q.earliest_dispatch(5), 100u);
}

TEST(QueueTracker, DispatchImmediateWhenSpace) {
  QueueTracker q(2);
  q.add(100);
  EXPECT_EQ(q.earliest_dispatch(5), 5u);
}

TEST(QueueTracker, GarbageCollection) {
  QueueTracker q(2);
  q.add(1);
  q.add(2);
  // By tick 3 both entries have issued; occupancy is zero and dispatch free.
  EXPECT_EQ(q.occupancy(3), 0u);
  EXPECT_EQ(q.earliest_dispatch(3), 3u);
}

TEST(QueueTracker, SizeAccessor) {
  QueueTracker q(32);
  EXPECT_EQ(q.size(), 32u);
}

TEST(QueueTracker, EarliestDispatchIsAPureQuery) {
  // Regression: the old multiset tracker erased the earliest occupant
  // inside earliest_dispatch, so a caller that probed without dispatching
  // (the flush/re-steer path runs exec_in twice) silently freed a slot.
  QueueTracker q(2);
  q.add(100);
  q.add(200);
  EXPECT_EQ(q.earliest_dispatch(5), 100u);
  EXPECT_EQ(q.earliest_dispatch(5), 100u);  // unchanged: no occupant was evicted
  EXPECT_EQ(q.occupancy(5), 2u);            // both entries still live
}

TEST(QueueTracker, FullQueueWaitsForEnoughDepartures) {
  // With the queue over-subscribed (probe + add pattern of the IR split
  // loop), a dispatch must wait until occupancy actually drops below the
  // queue size, i.e. for the n-th departure, not just the first.
  QueueTracker q(1);
  q.add(100);
  EXPECT_EQ(q.earliest_dispatch(0), 100u);
  q.add(150);  // the µop that dispatches at 100
  EXPECT_EQ(q.earliest_dispatch(0), 150u);  // 2 live, size 1: needs 2 departures
  EXPECT_EQ(q.earliest_dispatch(120), 150u);  // entry at 100 drained; 1 live, full
  EXPECT_EQ(q.earliest_dispatch(150), 150u);  // all drained: dispatch immediately
}

TEST(QueueTracker, RepeatedOverfullProbesAreStable) {
  // Over-subscribed queue (probe + add pattern): the multi-departure walk
  // must not remember progress across calls — a pure query returns the
  // same answer every time, and no live entry is skipped.
  QueueTracker q(2);
  q.add(100);
  q.add(200);
  q.add(300);
  EXPECT_EQ(q.earliest_dispatch(0), 200u);  // 3 live, size 2: 2 departures
  EXPECT_EQ(q.earliest_dispatch(0), 200u);  // identical on repeat
  EXPECT_EQ(q.occupancy(0), 3u);
  EXPECT_EQ(q.earliest_dispatch(100), 200u);  // entry at 100 drained: 2 live, full
  EXPECT_EQ(q.earliest_dispatch(100), 200u);
}

TEST(QueueTracker, RingGrowsForFarFutureIssueTicks) {
  QueueTracker q(4);
  q.add(10);
  q.add(u64{1} << 20);  // far beyond the initial ring capacity
  EXPECT_EQ(q.occupancy(0), 2u);
  EXPECT_EQ(q.occupancy(10), 1u);
  EXPECT_EQ(q.occupancy(u64{1} << 20), 0u);
}

TEST(SlotSchedule, RingWrapAroundKeepsCounts) {
  // Drive the reservation window far past the 64k-cycle ring capacity: the
  // ring must keep per-cycle counts exact across the wrap.
  SlotSchedule s(2, 1);
  const Tick far = 3u << 16;  // 3x the window
  EXPECT_EQ(s.reserve(far), far);
  EXPECT_EQ(s.reserve(far), far);
  EXPECT_EQ(s.reserve(far), far + 1);  // width enforced after the wrap
  EXPECT_FALSE(s.has_free_slot(far));
  EXPECT_TRUE(s.has_free_slot(far + 1));
}

TEST(SlotSchedule, GcHorizonAdvancesWithTheWindow) {
  SlotSchedule s(1, 1);
  (void)s.reserve(0);
  EXPECT_EQ(s.gc_horizon_cycle(), 0u);
  // Reserving far ahead slides the window; cycle 0 is garbage-collected and
  // reports no free slot (same contract as the old ledger's GC cutoff).
  const Tick far = 5u << 16;
  (void)s.reserve(far);
  EXPECT_GT(s.gc_horizon_cycle(), 0u);
  EXPECT_FALSE(s.has_free_slot(0));
  // A reservation below the horizon is clamped up to it.
  EXPECT_EQ(s.reserve(0), s.gc_horizon_cycle());
}

TEST(SlotSchedule, FreeSlotInFindsGapAndRespectsRange) {
  SlotSchedule s(1, 1);
  for (Tick t = 0; t < 400; ++t) (void)s.reserve(t);  // cycles 0..399 full
  EXPECT_FALSE(s.free_slot_in(0, 400).free);   // saturated region only
  EXPECT_TRUE(s.free_slot_in(0, 401).free);    // cycle 400 is past the frontier
  EXPECT_TRUE(s.free_slot_in(100, 200).truncated == false);
  EXPECT_FALSE(s.free_slot_in(100, 100).free);  // empty interval
}

TEST(SlotSchedule, FreeSlotInClassifiesLongGaps) {
  // Regression for the NREADY accounting: the old tick-stepping probe gave
  // up after 64 samples, so a free slot opening >64 cycles into a long
  // ready->issue gap was missed. The range probe must see it.
  SlotSchedule s(1, 1);
  for (Tick t = 0; t < 500; ++t) (void)s.reserve(t);  // full through cycle 499
  (void)s.reserve(501);                               // leave cycle 500 free
  const auto probe = s.free_slot_in(0, 501);
  EXPECT_TRUE(probe.free);  // the only free cycle is the 501st of the gap
  EXPECT_FALSE(probe.truncated);
  EXPECT_FALSE(s.free_slot_in(0, 500).free);
}

TEST(SlotSchedule, FreeSlotInReportsTruncationBelowHorizon) {
  SlotSchedule s(1, 1);
  (void)s.reserve(6u << 16);  // slide the window; cycle 0 is GC'd
  const auto probe = s.free_slot_in(0, 10);
  EXPECT_TRUE(probe.truncated);
}

TEST(SlotSchedule, FreeSlotInWideClockProbesWholeCycles) {
  // cycle_ticks=2: the tick range [2, 6) overlaps cycles 1 and 2.
  SlotSchedule s(1, 2);
  (void)s.reserve(2);  // cycle 1 full
  (void)s.reserve(4);  // cycle 2 full
  (void)s.reserve(6);  // cycle 3 full (keeps the frontier past the range)
  EXPECT_FALSE(s.free_slot_in(2, 6).free);
  EXPECT_TRUE(s.free_slot_in(2, 9).free);  // cycle 4 is past the frontier
}

// --- clear_slot_cycles vs the per-cycle GC loop -----------------------------

// The loop SlotSchedule::gc_to and ClusterEpoch::gc_ring ran before both
// called the shared word-at-a-time clear: the reference behaviour.
void clear_slot_cycles_ref(std::vector<u8>& used, std::vector<u64>& full, u64 from, u64 to) {
  constexpr u64 kMask = kSlotWindowCycles - 1;
  for (u64 c = from; c < to; ++c) {
    used[c & kMask] = 0;
    full[(c & kMask) >> 6] &= ~(u64{1} << (c & 63));
  }
}

// Fills a ring with random counts and full bits (deliberately unrelated, so a
// bit cleared outside the range or a count left inside it shows), clears
// [from, to) with both routines and compares every byte and word.
void expect_clear_matches_ref(u64 from, u64 to, u64 seed) {
  std::vector<u8> used(kSlotWindowCycles);
  std::vector<u64> full(kSlotWindowCycles / 64);
  u64 x = seed * 0x9E3779B97F4A7C15ull + 1;
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  for (u8& u : used) u = static_cast<u8>(next() | 1);
  for (u64& w : full) w = next();
  std::vector<u8> used_ref = used;
  std::vector<u64> full_ref = full;
  clear_slot_cycles(used, full, from, to);
  clear_slot_cycles_ref(used_ref, full_ref, from, to);
  EXPECT_TRUE(used == used_ref) << "counts differ for [" << from << ", " << to << ")";
  EXPECT_TRUE(full == full_ref) << "bitmap differs for [" << from << ", " << to << ")";
}

TEST(SlotRingClear, EdgeLengthsAndAlignments) {
  constexpr u64 W = kSlotWindowCycles;
  const u64 lengths[] = {1, 63, 64, 65, 127, W - 1};
  // Starts on, just before and just after a 64-cycle word boundary, near the
  // ring end (so the range wraps) and in later laps of the ring.
  const u64 starts[] = {0,      1,      63,     64,     65,         128,        4096 - 1,
                        W - 65, W - 64, W - 63, W - 1,  W,          3 * W + 17, 5 * W - 64,
                        7 * W - 1};
  u64 seed = 0;
  for (const u64 len : lengths)
    for (const u64 from : starts) expect_clear_matches_ref(from, from + len, ++seed);
}

TEST(SlotRingClear, RangesEndingOnWordBoundaries) {
  constexpr u64 W = kSlotWindowCycles;
  u64 seed = 100;
  for (const u64 to : {u64{64}, u64{128}, W, W + 64, 2 * W, 9 * W - 192})
    for (const u64 len : {u64{1}, u64{63}, u64{64}, u64{65}, u64{200}, W - 1})
      if (len <= to) expect_clear_matches_ref(to - len, to, ++seed);
}

TEST(SlotRingClear, RangesWrappingPastTheRingEnd) {
  constexpr u64 W = kSlotWindowCycles;
  u64 seed = 200;
  for (const u64 lap : {u64{0}, u64{1}, u64{40}})
    for (const u64 before_end : {u64{1}, u64{5}, u64{64}, u64{100}, W - 1})
      for (const u64 after_end : {u64{1}, u64{63}, u64{64}, u64{65}, u64{1000}})
        if (before_end + after_end < W) {
          const u64 end = (lap + 1) * W;
          expect_clear_matches_ref(end - before_end, end + after_end, ++seed);
        }
}

TEST(SlotRingClear, RandomRangesMatchTheReference) {
  u64 x = 12345;
  for (int i = 0; i < 1000; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    const u64 from = (x >> 20) % (u64{1} << 40);
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    // Half the lengths are short (the common single-miss slide), half span
    // most of the window.
    const u64 len = (i & 1) ? 1 + (x >> 33) % 1024 : 1 + (x >> 33) % (kSlotWindowCycles - 1);
    expect_clear_matches_ref(from, from + len, static_cast<u64>(i));
  }
}

class SlotScheduleWidths : public ::testing::TestWithParam<unsigned> {};

TEST_P(SlotScheduleWidths, ThroughputMatchesWidth) {
  const unsigned width = GetParam();
  SlotSchedule s(width, 1);
  // Reserve 10*width slots starting at tick 0: they must occupy exactly 10
  // cycles.
  Tick last = 0;
  for (unsigned i = 0; i < 10 * width; ++i) last = s.reserve(0);
  EXPECT_EQ(last, 9u);
}

INSTANTIATE_TEST_SUITE_P(Widths, SlotScheduleWidths, ::testing::Values(1u, 2u, 3u, 6u));

}  // namespace
}  // namespace hcsim
