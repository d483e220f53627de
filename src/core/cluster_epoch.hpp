// hcsim — per-cluster epoch engine: the fused cluster resource model.
//
// A backend cluster's issue slots, issue queue and copy ports (Section 4:
// the copy scheme "requires its own scheduling resources") in one object:
//
//   * Issue slots and copy ports are two SlotSchedules, the ledger the cache
//     ports use too.
//   * Queue occupancy is ledgered per *cycle bucket* of the issue slots'
//     clock (every departure tick comes from an issue-slot reservation, so
//     it starts a cycle), not per tick: half the ring traffic at the wide
//     clock. Two epoch cursors —
//     `qdrained_` (buckets below are retired) and `qnext_` (earliest
//     occupied bucket) — make the per-µop drain a pair of compares; bucket
//     scans happen once per epoch advance, not once per probe. The ring
//     spans the departures in flight from `qdrained_` on: a departure
//     beyond it first drains what has departed, and only then grows it.
//   * dispatch() fuses the earliest_dispatch → reserve → add triple.
//
// tests/test_cluster_epoch.cpp fuzzes the queue ledger against a per-tick
// reference tracker (tests/queue_tracker.hpp) tick for tick.
#pragma once

#include <bit>
#include <vector>

#include "util/log.hpp"
#include "util/slot_schedule.hpp"
#include "util/types.hpp"

namespace hcsim {

class ClusterEpoch {
 public:
  /// An engine with no storage; init() before use.
  ClusterEpoch() = default;

  /// `copy_ports` == 0 means the cluster schedules no copies (FP).
  void init(unsigned issue_width, unsigned queue_size, unsigned copy_ports,
            Tick cycle_ticks);

  /// Fused per-µop resource interaction, equivalent to the sequence
  ///   qdisp = earliest_dispatch(from);
  ///   ready = max(src_ready, qdisp);
  ///   issue = <issue slots>.reserve(ready);
  ///   queue_add(issue);
  struct Dispatched {
    Tick qdisp;  // earliest tick the queue admits an entry (>= from)
    Tick ready;  // max(src_ready, qdisp)
    Tick issue;  // start of the cycle the µop issues in
  };
  Dispatched dispatch(Tick from, Tick src_ready) {
    const Tick qdisp = earliest_dispatch(from);
    const Tick ready = src_ready > qdisp ? src_ready : qdisp;
    const Tick issue = issue_.reserve(ready);
    queue_add(issue);
    return {qdisp, ready, issue};
  }

  /// Earliest tick >= `t` at which the issue queue has a free entry. Pure
  /// query apart from the lazy drain.
  ///
  /// The drain is deferred past laziness: `live_` is allowed to go stale
  /// *high* (departed entries still counted), because the answer is `t`
  /// whenever even the stale count is below capacity — the true occupancy
  /// can only be lower. Only when the stale count reaches capacity does the
  /// bucket walk run (catch_up), so the non-saturated common case is one
  /// compare. head_tick_ still advances eagerly: it gates queue_add's
  /// already-departed drop, which must see every tick probed so far.
  Tick earliest_dispatch(Tick t) {
    if (t + 1 > head_tick_) head_tick_ = t + 1;
    if (live_ < size_) [[likely]] return t;
    catch_up();
    if (live_ < size_) return t;
    return earliest_dispatch_full();
  }

  /// Queue occupancy as seen at tick `t` (after the lazy drain). Unlike
  /// earliest_dispatch this needs the exact count, so it always catches up.
  unsigned occupancy(Tick t) {
    if (t + 1 > head_tick_) head_tick_ = t + 1;
    catch_up();
    return static_cast<unsigned>(live_);
  }

  /// Reserve a copy port. Only valid after init() with copy_ports > 0.
  Tick reserve_copy(Tick ready) { return copy_.reserve(ready); }

  /// NREADY range probe over the *issue* slots.
  SlotRangeProbe free_issue_slot_in(Tick from, Tick until) const {
    return issue_.free_slot_in(from, until);
  }

  u64 issue_reservations() const { return issue_.reservations(); }

  /// Initial queue-ledger span in cycle buckets (power of two, multiple of
  /// 64). It spans the departures still in flight, from the drained cycle
  /// on: queue_add drains what has departed before it grows the ring by
  /// doubling, so a run whose departures spread wider (a chain of misses)
  /// only grows it, and no result depends on it.
  static constexpr u64 kInitialQueueCycles = u64{1} << 10;
  /// The queue ledger's current span in cycle buckets.
  u64 queue_cycles() const { return qmask_ + 1; }

 private:
  /// "No occupied bucket" sentinel; compares greater than any real cycle.
  static constexpr u64 kNoCycle = ~u64{0};

  /// Retire every queue entry departing below head_tick_ (the deferred
  /// drain). Requires head_tick_ > 0 — both callers bump it first. Buckets
  /// are only walked when the drain cursor actually crosses occupied cycles.
  void catch_up() {
    const u64 tc = issue_.to_cycle(head_tick_ - 1) + 1;  // retire cycles < tc
    if (tc <= qdrained_) return;
    if (tc <= qnext_) {  // nothing occupied below the target epoch
      qdrained_ = tc;
      return;
    }
    drain_cycles(tc);
  }

  /// Record a dispatched µop departing the queue at `issue` (cycle-aligned
  /// — it comes from an issue-slot reservation, so a bucket counts at most
  /// the issue width).
  void queue_add(Tick issue) {
    // An entry departing below the drain head already "left" the queue.
    if (issue < head_tick_) [[unlikely]] return;
    const u64 c = issue_.to_cycle(issue);
    if (c - qdrained_ > qmask_) [[unlikely]] {
      // The drain is lazy, so qdrained_ may lag head_tick_ by far more than
      // the departures in flight (a queue that never fills never drains).
      // Retire what has departed first, and grow only if `c` is still out
      // of the ring's span.
      if (head_tick_ > 0) catch_up();
      if (c - qdrained_ > qmask_) grow_queue(c);
    }
    const u64 pos = c & qmask_;
    if (qring_[pos]++ == 0) qocc_[pos >> 6] |= u64{1} << (pos & 63);
    ++live_;
    qtail_ = c >= qtail_ ? c + 1 : qtail_;
    qnext_ = c < qnext_ ? c : qnext_;
    full_slack_ -= c > full_at_cycle_;
  }

  void drain_cycles(u64 target_cycle);
  Tick earliest_dispatch_full() const;  // the queue-full walk
  void grow_queue(u64 cycle);
  /// First occupied bucket cycle >= `from`; kNoCycle if none below qtail_.
  u64 next_occupied(u64 from) const;

  // --- hot header (shared by every per-µop probe) -------------------------
  unsigned size_ = 0;      // queue capacity
  u64 live_ = 0;           // entries currently in the queue
  u64 qdrained_ = 0;       // buckets with cycle < qdrained_ are retired
  u64 qnext_ = kNoCycle;   // earliest occupied bucket cycle
  Tick head_tick_ = 0;     // every departure tick < head_tick_ is drained
  u64 qtail_ = 0;          // one past the largest occupied bucket cycle
  u64 qmask_ = 0;

  // Queue-full answer cache (see earliest_dispatch_full): the last answer's
  // cycle and (departures by it) minus (departures required for a free
  // entry). Mutable: invisible to query results.
  mutable u64 full_at_cycle_ = 0;
  mutable i64 full_slack_ = -1;

  // Per-cycle-bucket departure counts. A bucket counts the µops issuing in
  // one cycle, so it holds at most the issue width, which init() checks
  // fits a u8.
  std::vector<u8> qring_;
  std::vector<u64> qocc_;   // bitmap: bucket non-empty

  SlotSchedule issue_;
  SlotSchedule copy_;  // empty when the cluster has no copy ports
};

}  // namespace hcsim
