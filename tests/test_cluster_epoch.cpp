// Differential tests for the fused per-cluster epoch engine.
//
// ClusterEpoch fuses a cluster's issue slots, issue queue and copy ports.
// Its queue ledger is cycle-bucketed with a deferred drain; the reference
// here is QueueTracker (queue_tracker.hpp), a per-tick ledger that drains on
// every query. The engine's issue and copy slots are SlotSchedules, so the
// reference holds SlotSchedules too: that half of the comparison checks the
// engine's wiring (which ledger each call reaches, and the call order), not
// a second ledger implementation. The fuzz drives both through long
// randomized sequences shaped like the pipeline's actual usage —
// mostly-forward dispatch ticks with occasional far jumps, source-ready
// ticks that sometimes land far in the future, interleaved occupancy
// probes, copy-port reservations and NREADY range probes — and demands
// tick-exact agreement on every reply. The suite runs under the sanitizer
// CI job, so the fuzz also shakes out any OOB in the engine's ring/bitmap
// arithmetic.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/cluster_epoch.hpp"
#include "queue_tracker.hpp"
#include "util/rng.hpp"
#include "util/slot_schedule.hpp"

namespace hcsim {
namespace {

/// The reference triple, called in the sequence dispatch() fuses.
struct ReferenceCluster {
  SlotSchedule slots;
  QueueTracker queue;
  SlotSchedule copy;

  ReferenceCluster(unsigned width, unsigned qsize, unsigned copy_ports,
                   Tick cycle_ticks)
      : slots(width, cycle_ticks),
        queue(qsize),
        copy(copy_ports > 0 ? copy_ports : 1, cycle_ticks) {}

  ClusterEpoch::Dispatched dispatch(Tick from, Tick src_ready) {
    const Tick qdisp = queue.earliest_dispatch(from);
    const Tick ready = std::max(src_ready, qdisp);
    const Tick issue = slots.reserve(ready);
    queue.add(issue);
    return {qdisp, ready, issue};
  }
};

struct FuzzConfig {
  unsigned width;
  unsigned qsize;
  unsigned copy_ports;
  Tick cycle_ticks;
};

void run_fuzz(const FuzzConfig& cfg, u64 seed, int ops) {
  ClusterEpoch engine;
  engine.init(cfg.width, cfg.qsize, cfg.copy_ports, cfg.cycle_ticks);
  ReferenceCluster ref(cfg.width, cfg.qsize, cfg.copy_ports, cfg.cycle_ticks);

  Rng rng(seed);
  Tick cursor = 0;
  for (int op = 0; op < ops; ++op) {
    const u64 kind = rng.below(10);
    // The dispatch tick creeps forward like the frontend does, with
    // occasional far jumps (drained program phases) and small backsteps
    // (the flush/re-steer path re-probes at an older tick).
    const u64 step = rng.below(20) == 0 ? rng.below(100000) : rng.below(4);
    const Tick back = rng.below(8) == 0 ? rng.below(32) : 0;
    cursor += step;
    const Tick from = cursor > back ? cursor - back : 0;

    if (kind < 7) {
      // Source operands are usually near the dispatch tick but sometimes
      // far in the future (a load miss feeding this µop).
      const Tick src_ready =
          from + (rng.below(10) == 0 ? rng.below(200000) : rng.below(16));
      const ClusterEpoch::Dispatched got = engine.dispatch(from, src_ready);
      const ClusterEpoch::Dispatched want = ref.dispatch(from, src_ready);
      ASSERT_EQ(got.qdisp, want.qdisp) << "op " << op;
      ASSERT_EQ(got.ready, want.ready) << "op " << op;
      ASSERT_EQ(got.issue, want.issue) << "op " << op;
    } else if (kind == 7) {
      ASSERT_EQ(engine.occupancy(from), ref.queue.occupancy(from))
          << "op " << op;
    } else if (kind == 8 && cfg.copy_ports > 0) {
      const Tick ready = from + rng.below(8);
      ASSERT_EQ(engine.reserve_copy(ready), ref.copy.reserve(ready))
          << "op " << op;
    } else {
      const Tick until = from + 1 + rng.below(64);
      const SlotRangeProbe got = engine.free_issue_slot_in(from, until);
      const SlotRangeProbe want = ref.slots.free_slot_in(from, until);
      ASSERT_EQ(got.free, want.free) << "op " << op;
      ASSERT_EQ(got.truncated, want.truncated) << "op " << op;
    }
  }
  ASSERT_EQ(engine.issue_reservations(), ref.slots.reservations());
}

// --- the reference queue tracker on its own --------------------------------

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

// --- ClusterEpoch against the reference ------------------------------------

TEST(ClusterEpochFuzz, MatchesLegacyTripleAcrossGeometries) {
  // Widths, queue sizes and clock ratios cover the stock configurations
  // (wide 2-tick cycles, helper 1-tick) plus the non-power-of-two clock
  // the clock-ratio ablation uses, which exercises the divide path.
  int seed = 0;
  for (unsigned width : {1u, 2u, 3u}) {
    for (unsigned qsize : {2u, 4u, 32u}) {
      for (Tick cycle_ticks : {Tick{1}, Tick{2}, Tick{3}}) {
        for (unsigned copy_ports : {0u, 2u}) {
          run_fuzz({width, qsize, copy_ports, cycle_ticks},
                   /*seed=*/0x9E3779B9u + seed++, /*ops=*/20000);
          if (HasFatalFailure()) return;
        }
      }
    }
  }
}

TEST(ClusterEpochFuzz, SaturatedQueueLongRun) {
  // Pin the dispatch tick to a slow crawl with large source delays so the
  // queue spends most of the run full: the earliest_dispatch_full walk and
  // its (answer, slack) cache are the trickiest shared logic.
  run_fuzz({2, 2, 0, Tick{2}}, /*seed=*/0xF0752ull, /*ops=*/60000);
}

TEST(ClusterEpoch, DispatchMatchesLegacyStepByStep) {
  // A hand-checked miniature of the fused call: width 1, queue 1 — the
  // second dispatch must wait for the first entry's departure.
  ClusterEpoch e;
  e.init(/*width=*/1, /*qsize=*/1, /*copy_ports=*/0, /*cycle_ticks=*/1);
  const auto a = e.dispatch(/*from=*/0, /*src_ready=*/10);
  EXPECT_EQ(a.qdisp, 0u);
  EXPECT_EQ(a.ready, 10u);
  EXPECT_EQ(a.issue, 10u);
  const auto b = e.dispatch(/*from=*/1, /*src_ready=*/1);
  EXPECT_EQ(b.qdisp, 10u);  // queue of one: full until the first issues
  EXPECT_EQ(b.ready, 10u);
  EXPECT_EQ(b.issue, 11u);  // issue slot at 10 is taken by the first µop
}

TEST(ClusterEpoch, OccupancyDrainsAtIssueTicks) {
  ClusterEpoch e;
  e.init(2, 4, 0, Tick{1});
  (void)e.dispatch(0, 10);  // issues at 10
  (void)e.dispatch(0, 12);  // issues at 12
  EXPECT_EQ(e.occupancy(5), 2u);
  EXPECT_EQ(e.occupancy(10), 1u);
  EXPECT_EQ(e.occupancy(12), 0u);
}

TEST(ClusterEpoch, QueueThatNeverFillsKeepsItsInitialRing) {
  // One µop every 1000 cycles, each departing 3 cycles after dispatch: the
  // queue of 32 never fills, not even on the stale count, so the lazy
  // drain never runs, and the stream spans 24k cycles, more than the
  // ring's initial 1k. The ring must still span only the departures in
  // flight rather than everything since the first dispatch.
  ClusterEpoch e;
  e.init(/*width=*/2, /*qsize=*/32, /*copy_ports=*/0, /*cycle_ticks=*/1);
  for (Tick t = 0; t < 24000; t += 1000) EXPECT_EQ(e.dispatch(t, t + 3).issue, t + 3);
  EXPECT_EQ(e.queue_cycles(), ClusterEpoch::kInitialQueueCycles);
  EXPECT_EQ(e.occupancy(23000), 1u);
  EXPECT_EQ(e.occupancy(23003), 0u);
}

TEST(ClusterEpoch, BucketHoldsTheWidestIssueCycle) {
  // A queue bucket is one byte: at the widest issue width a machine config
  // allows, one cycle's 255 departures fill it exactly, and a width beyond
  // that is refused.
  ClusterEpoch e;
  e.init(/*width=*/255, /*qsize=*/512, /*copy_ports=*/0, /*cycle_ticks=*/1);
  for (unsigned i = 0; i < 255; ++i) EXPECT_EQ(e.dispatch(0, 5).issue, 5u);
  EXPECT_EQ(e.dispatch(0, 5).issue, 6u);
  EXPECT_EQ(e.occupancy(4), 256u);
  EXPECT_EQ(e.occupancy(5), 1u);  // the drain took the bucket's 255 back
  EXPECT_EQ(e.occupancy(6), 0u);
  ClusterEpoch wider;
  EXPECT_DEATH(wider.init(256, 32, 0, 1), "fit a queue bucket");
}

}  // namespace
}  // namespace hcsim
