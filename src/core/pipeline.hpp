// hcsim — the clustered out-of-order pipeline model.
//
// A program-order resource model of the Figure 2 machine: a shared frontend
// (fetch from the trace cache, decode/split, rename/steer, dispatch) feeding
// a 32-bit wide backend (integer + FP schedulers) and an optional 8-bit
// helper backend clocked `ticks_per_wide_cycle`x faster. µops are processed
// in program order; out-of-order issue is modeled by per-cluster issue-slot
// ledgers, issue-queue occupancy tracking, dependence-driven ready times,
// memory-port ledgers, inter-cluster copy µops, branch misprediction
// redirects, and flush-based width-misprediction recovery.
//
// The pipeline keeps only timing. Which cache level serves each access,
// whether each conditional branch is mispredicted, each result's width
// prediction, each record's width lanes and which of its operands agree
// with its output above the helper width depend only on program order and
// values, so an OutcomeModel (core/outcome_model.hpp) works them out once
// per record, and every config with the same outcome key walks the same
// outcomes. The timing walk reads no record: only each µop's 16-bit outcome
// and, for the µops whose pc is not the previous one's + 1 (the jumps), the
// pc from a jump list, so a cell can keep 2 bytes per record plus 4 per
// jump instead of its 32-byte trace.
//
// Global time advances in ticks: one tick = one helper-cluster cycle; the
// frontend, wide backend, caches and commit operate every
// `ticks_per_wide_cycle` ticks (Section 2.2's synchronized 2x clocking).
//
// Hot-path architecture (see src/bbcache): everything derivable from the
// static µop alone is cracked once per PC into a UopTemplate and replayed
// for every dynamic instance. Cache-on and cache-off feeds funnel into the
// same feed_record() core, so both are bit-identical by construction.
#pragma once

#include <array>
#include <memory>
#include <span>
#include <vector>

#include "bbcache/bb_cache.hpp"
#include "core/cluster_epoch.hpp"
#include "core/machine_config.hpp"
#include "core/sim_result.hpp"
#include "util/slot_schedule.hpp"
#include "mem/memory_system.hpp"
#include "predict/width_predictor.hpp"
#include "steer/steering.hpp"
#include "trace/trace.hpp"

namespace hcsim {

class OutcomeModel;

class Pipeline {
 public:
  /// The pipeline binds to a static program; dynamic records are fed in
  /// program order — all at once (run) or incrementally (feed/finish), which
  /// is what lets long traces stream through without being materialized.
  /// Aborts if `cfg` breaks a rule machine_config_error names.
  ///
  /// `shared_cache` optionally substitutes an external decode cache for the
  /// pipeline's private one — sweep drivers reuse cracked templates across
  /// runs of the same (program, config); the cache rebinds (and invalidates
  /// on key changes) here.
  Pipeline(const MachineConfig& cfg, const Program& program,
           DecodeCache* shared_cache = nullptr);
  ~Pipeline();

  /// Process a batch of dynamic µops in program order. Splitting a stream
  /// into batches differently gives bit-identical results. Each block of
  /// kOutcomeBlock records first runs through the pipeline's private
  /// OutcomeModel (built on the first call) and mark_jumps, then, as its
  /// outcomes and jumps, through the timing walk.
  void feed(std::span<const TraceRecord> recs);

  /// The same walk over records given as the outcomes an OutcomeModel
  /// built with this config's outcome key wrote for them (one per record)
  /// and the pcs of those whose jump bit mark_jumps set (one per jump bit,
  /// in order), from the stream's first record on. Each record's pc is the
  /// next jump's pc when its jump bit is set, else the previous record's
  /// pc + 1, carried from the previous call. Gives the same result as
  /// feed(recs). Aborts unless the first record walked is a jump, the
  /// call's jump bits and jumps pair up one for one, and every pc indexes
  /// the program. A pipeline takes one of the two forms for its whole run.
  void feed(std::span<const u16> outcomes, std::span<const u32> jumps);

  /// Flush training windows, derive the summary statistics and return the
  /// result. Call exactly once, after the last feed().
  SimResult finish();

  /// Pull every record from `cursor` through feed() and finish().
  SimResult run(TraceCursor& cursor);

  /// Raw running-statistics checkpoint for windowed sampling (src/sample):
  /// every integer event field accumulated so far (derived doubles unset —
  /// only finish() computes those) plus the cache hit/access totals that
  /// finish() folds into rates. Two checkpoints of one run subtract to
  /// exactly the events of the µops fed between them.
  ///
  /// This is the counter half of the window checkpoint contract. The
  /// *machine-state* half is deliberately reset-plus-warmup instead of
  /// snapshot/restore: a window re-simulated from a cold Pipeline after K
  /// warm-up µops is a pure function of (config, program, record range), so
  /// its result does not depend on the windows simulated before it — a
  /// mutable snapshot of predictors/caches/schedulers carried from window
  /// to window would make it depend on them.
  struct StatsCheckpoint {
    SimResult res;
    u64 dl0_hits = 0, dl0_accesses = 0;
    u64 ul1_hits = 0, ul1_accesses = 0;
  };
  StatsCheckpoint checkpoint_stats() const;

  /// Dynamic µops fed so far.
  u64 fed_uops() const { return next_seq_; }

 private:
  /// Records per private outcome block of feed(recs).
  static constexpr std::size_t kOutcomeBlock = WidthLaneBlock::kRecords;

  struct CpTrainEntry;

  // Cluster index helpers: 0 = wide int, 1 = helper, 2 = wide FP.
  static constexpr unsigned kWideIdx = 0;
  static constexpr unsigned kHelperIdx = 1;
  static constexpr unsigned kFpIdx = 2;
  static constexpr unsigned kNumBackends = 3;

  /// Program-order view of one architectural register: where its current
  /// value lives (per backend), when it becomes readable there, its actual
  /// and predicted widths, and the producing µop (for CP training and the
  /// BR rule). In the header so acquire_value's all-hot fast path — value
  /// already present in the right cluster — stays inline.
  struct RegState {
    std::array<Tick, kNumBackends> avail = {0, 0, 0};
    std::array<bool, kNumBackends> present = {true, true, true};
    bool value_narrow = true;   // actual width of the current value
    bool pred_narrow = true;    // width the producer's predictor announced
    Tick known_at = 0;          // when the actual width is architecturally known
    u32 producer_pc = ~0u;
    SeqNum producer_seq = kSeqNone;
    unsigned producer_cluster = kWideIdx;
    bool prefetched = false;    // a CP prefetch put the value in the other cluster
  };

  Tick wide_ticks() const { return cfg_.ticks_per_wide_cycle; }
  Tick cycle_ticks(unsigned cluster) const {
    return cluster == kHelperIdx ? 1 : wide_ticks();
  }

  /// The decode-once/replay-many core: the dynamic µop at `pc` against its
  /// cracked template and its outcome (core/outcome_model.hpp): the width
  /// lanes, folded against the template masks, the result-width
  /// prediction, the cache level or branch verdict, and the operands'
  /// upper-bit matches for the CR check.
  void feed_record(u32 pc, const UopTemplate& t, u16 outcome);

  /// The timing walk over outcomes and their jumps (feed's checks).
  void walk(std::span<const u16> outcomes, std::span<const u32> jumps);

  /// Template for `pc`: decode-cache replay when enabled (counting hits and
  /// misses), a fresh crack into scratch_tmpl_ when disabled.
  const UopTemplate& lookup_template(u32 pc) {
    if (cache_on_) {
      if (const UopTemplate* t = cache_->try_get(pc)) [[likely]] {
        res_.counters[Counter::kBbCacheHits]++;
        return *t;
      }
      res_.counters[Counter::kBbCacheMisses]++;
      return cache_->fill(pc);
    }
    scratch_tmpl_ = build_uop_template(program_.uops[pc], cfg_.steer,
                                       cfg_.helper_width_bits);
    return scratch_tmpl_;
  }

  /// Value availability of register `r` in `cluster`, generating a demand
  /// copy µop if the value lives only in the other cluster. Returns the tick
  /// the value becomes readable there. Runs up to three times per µop; the
  /// dominant already-present case stays inline, the copy machinery doesn't.
  Tick acquire_value(RegId r, unsigned cluster, Tick dispatch_tick) {
    RegState& st = (*regs_)[r];
    if (st.present[cluster]) [[likely]] {
      if (st.prefetched && st.producer_cluster != cluster) [[unlikely]]
        return acquire_prefetched(st, cluster);
      return st.avail[cluster];
    }
    return acquire_demand_copy(st, cluster, dispatch_tick);
  }
  Tick acquire_prefetched(RegState& st, unsigned cluster);
  Tick acquire_demand_copy(RegState& st, unsigned cluster, Tick dispatch_tick);

  /// Schedule one copy µop from `from` cluster to `to` cluster for a value
  /// that becomes available in `from` at `value_ready`. Returns availability
  /// tick in `to`.
  Tick schedule_copy(unsigned from, unsigned to, Tick request_tick, Tick value_ready);

  /// CP: producer-side copy prefetch at writeback (Section 3.6).
  void maybe_copy_prefetch(RegId dst, u32 pc, unsigned cluster, Tick complete);

  /// Rename-time source widths (Section 3.2): a register's actual width if
  /// its producer wrote back by `disp`, else its predicted width bit.
  struct SrcWidths {
    bool all_narrow = true;
    bool have_narrow = false;
    unsigned wide = 0;       // number of wide sources
    unsigned wide_slot = 0;  // operand slot of the last wide source
                             // (Outcome::kImmSlot: the immediate)
  };
  SrcWidths scan_src_widths(const UopTemplate& t, Tick disp) const;

  /// Memory access path shared by loads and stores, served by `level`.
  Tick memory_access(MemLevel level, bool is_store, Tick agu_done);

  /// NREADY imbalance accounting for a µop that waited to issue.
  void account_nready(unsigned cluster, bool eligible_other, Tick ready, Tick issue);

  void train_cp_window(SeqNum upto_seq);

  /// Counters that tick exactly once per µop regardless of path (fetched,
  /// width-table lookups, committed, uops) — bumped per feed() call instead
  /// of per record.
  void bump_per_uop_counters(u64 n);

  const MachineConfig cfg_;
  const Program& program_;
  SteeringPolicy policy_;

  // Carry and copy halves only: the result half lives in the OutcomeModel.
  WidthPredictor wpred_;
  MemoryPorts mem_ports_;
  Ratio dl0_hits_;  // hits / accesses, counted from the outcome levels
  Ratio ul1_hits_;
  // feed(recs)'s private model and its block's jumps; feed(outcomes, jumps)
  // never builds one.
  std::unique_ptr<OutcomeModel> own_model_;
  std::vector<u32> own_jumps_;

  // Decode-and-steer cache (src/bbcache): private by default, injectable.
  DecodeCache own_cache_;
  DecodeCache* cache_ = nullptr;
  bool cache_on_ = false;
  UopTemplate scratch_tmpl_;  // cache-off: per-record crack target

  // Config facts hoisted out of the per-µop walk.
  Tick frontend_ticks_ = 0;   // frontend_depth * wide_ticks
  unsigned width_bits_ = 8;   // helper datapath width
  bool wt_pow2_ = true;       // ticks_per_wide_cycle is a power of two
  unsigned wt_shift_ = 1;     // log2(ticks_per_wide_cycle) when wt_pow2_
  bool needs_occ_ = false;    // decide() reads issue-queue occupancy
  bool cr_on_ = false;
  bool lr_on_ = false;
  bool cp_on_ = false;
  bool ir_block_on_ = false;

  // Frontend / commit schedules (wide clock domain). MonotonicSlots checks
  // that no request falls in an earlier cycle than the one before. Fetch
  // requests fetch_barrier_, which only grows; commit clamps each request to
  // the previous commit; rename requests are at least last_dispatch_ and
  // dispatch_backpressure_. The split path reserves again at disp; the flush
  // path at redisp, and its exec_in raises dispatch_backpressure_ to at
  // least redisp for the next µop.
  MonotonicSlots fetch_slots_;
  MonotonicSlots rename_slots_;
  MonotonicSlots commit_slots_;

  // Per-cluster resources: each backend's issue slots, issue queue and copy
  // ports (Section 4: the copy scheme "requires its own scheduling
  // resources"; the FP cluster has none) in one by-value ClusterEpoch.
  std::array<ClusterEpoch, kNumBackends> epochs_;

  // Architectural register location/width state (program-order view).
  std::unique_ptr<std::array<RegState, kNumRegs>> regs_;

  // ROB occupancy: commit ticks of the last rob_entries µops.
  std::vector<Tick> rob_commit_;

  // CP training window (producers awaiting "did it incur a copy?").
  std::vector<CpTrainEntry> cp_window_;

  // Rolling ring positions (seq % rob_entries / seq % cp_window size without
  // the per-µop u64 modulo; advanced once per feed_record).
  unsigned rob_pos_ = 0;
  unsigned cp_pos_ = 0;

  /// Block-granularity IR (the Section 3.7 extension): while positive,
  /// splittable µops join the current helper block without re-consulting
  /// the imbalance trigger.
  unsigned block_split_remaining_ = 0;

  Tick fetch_barrier_ = 0;     // redirect/flush refill point
  Tick last_dispatch_ = 0;
  Tick last_commit_ = 0;
  /// In-order dispatch backpressure: when a µop (or one of its copies)
  /// stalls on a full issue queue, younger µops cannot dispatch earlier.
  Tick dispatch_backpressure_ = 0;
  SeqNum next_seq_ = 0;
  u32 walk_pc_ = 0;  // the last walked record's pc

  SimResult res_;
};

/// Convenience wrapper: build a pipeline and run the trace.
SimResult simulate(const MachineConfig& cfg, const Trace& trace);

/// Streaming form: records are pulled chunk-wise from the cursor.
SimResult simulate(const MachineConfig& cfg, TraceCursor& cursor);

}  // namespace hcsim
