// Tests for the slot ledgers: SlotSchedule, its window GC, and the in-order
// MonotonicSlots counter checked against it.
#include <gtest/gtest.h>

#include "util/rng.hpp"
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

TEST(SlotSchedule, RingWrapAroundKeepsCounts) {
  // Drive the reservation window far past the 64k-cycle ring capacity: the
  // ring must keep per-cycle counts exact across the wrap.
  SlotSchedule s(2, 1);
  const Tick far = 3u << 16;  // 3x the window
  EXPECT_EQ(s.reserve(far), far);
  EXPECT_EQ(s.reserve(far), far);
  EXPECT_EQ(s.reserve(far), far + 1);  // width enforced after the wrap
  EXPECT_FALSE(s.free_slot_in(far, far + 1).free);
  EXPECT_TRUE(s.free_slot_in(far + 1, far + 2).free);
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
  const auto below_horizon = s.free_slot_in(0, 1);
  EXPECT_FALSE(below_horizon.free);
  EXPECT_TRUE(below_horizon.truncated);
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

// The per-cycle loop SlotSchedule::gc_to ran before it called the
// word-at-a-time clear: the reference behaviour.
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

// --- MonotonicSlots vs SlotSchedule -----------------------------------------

TEST(MonotonicSlots, RequestsBelowTheLastResultInTheSameCycleRun) {
  // The IR split path's shape: one reserve at the dispatch tick, then three
  // more at that same tick. Once the cycle spills, the later requests fall
  // below the slot just returned; their cycle is still the previous
  // request's, so the counter answers exactly like the ring.
  MonotonicSlots mono(/*width=*/2, /*cycle_ticks=*/2);
  SlotSchedule ring(2, 2);
  for (int k = 0; k < 4; ++k) EXPECT_EQ(mono.reserve(10), ring.reserve(10)) << k;
  EXPECT_EQ(mono.reserve(10), 14u);  // cycles 5 and 6 are full
  EXPECT_EQ(mono.reserve(11), 14u);  // a later tick in the same cycle
}

TEST(MonotonicSlots, MatchesSlotScheduleOnNonDecreasingRequestCycles) {
  // Random streams whose request cycle never decreases: long runs of equal
  // requests (split-shaped: a request, then three more at the tick it
  // returned, or just at the same tick), ticks anywhere inside their cycle
  // (so a tick may sit below the previous one in the same cycle), and
  // forward steps from one cycle to far jumps.
  for (unsigned width = 1; width <= 6; ++width) {
    for (const Tick ct : {Tick{1}, Tick{2}, Tick{3}}) {
      MonotonicSlots mono(width, ct);
      SlotSchedule ring(width, ct);
      Rng rng(0x5107 + width * 7 + ct);
      u64 cycle = 0;
      for (int i = 0; i < 20000; ++i) {
        const u64 step = rng.below(8);
        cycle += step < 4 ? 0 : step < 7 ? 1 + rng.below(3) : rng.below(1000);
        const Tick tick = cycle * ct + rng.below(ct);
        const Tick got = mono.reserve(tick);
        ASSERT_EQ(got, ring.reserve(tick))
            << "width " << width << " ct " << ct << " request " << i;
        const u64 shape = rng.below(4);
        if (shape == 0) {
          // Split shape: three more slots at the returned tick.
          for (int k = 0; k < 3; ++k)
            ASSERT_EQ(mono.reserve(got), ring.reserve(got))
                << "width " << width << " ct " << ct << " request " << i;
          cycle = got / ct;
        } else if (shape == 1) {
          // A run of requests at the same tick, spilling past full cycles.
          for (u64 k = rng.below(2 * width + 2); k > 0; --k)
            ASSERT_EQ(mono.reserve(tick), ring.reserve(tick))
                << "width " << width << " ct " << ct << " request " << i;
        }
      }
    }
  }
}

TEST(MonotonicSlots, DecreasingRequestCycleAborts) {
  EXPECT_DEATH(
      {
        MonotonicSlots s(/*width=*/2, /*cycle_ticks=*/2);
        (void)s.reserve(10);  // cycle 5
        (void)s.reserve(8);   // cycle 4
      },
      "request cycle below the previous request's");
}

}  // namespace
}  // namespace hcsim
