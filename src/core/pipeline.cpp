#include "core/pipeline.hpp"

#include <algorithm>
#include <bit>
#include <string>

#include "core/outcome_model.hpp"
#include "util/log.hpp"

namespace hcsim {

// ---------------------------------------------------------------------------
// Internal state types
// ---------------------------------------------------------------------------

/// CP training window entry: producers wait here until they age out of the
/// pipeline, at which point the copy predictor learns whether this instance
/// incurred (or usefully prefetched) an inter-cluster copy.
struct Pipeline::CpTrainEntry {
  SeqNum seq = kSeqNone;
  u32 pc = 0;
  bool copied = false;
  bool prefetch_used = false;
  bool valid = false;
};

// ---------------------------------------------------------------------------
// Construction
// ---------------------------------------------------------------------------

namespace {

/// Checked before any component is built, so a bad config names its rule.
const MachineConfig& runnable(const MachineConfig& cfg) {
  const std::string error = machine_config_error(cfg);
  HCSIM_CHECK(error.empty(), "unrunnable machine config: " + error);
  return cfg;
}

}  // namespace

Pipeline::Pipeline(const MachineConfig& cfg, const Program& program,
                   DecodeCache* shared_cache)
    : cfg_(runnable(cfg)),
      program_(program),
      policy_(cfg.steer),
      wpred_(cfg.wpred),
      mem_ports_(cfg.mem),
      fetch_slots_(cfg.fetch_width, cfg.ticks_per_wide_cycle),
      rename_slots_(cfg.rename_width, cfg.ticks_per_wide_cycle),
      commit_slots_(cfg.commit_width, cfg.ticks_per_wide_cycle) {
  epochs_[kWideIdx].init(cfg.issue_wide, cfg.iq_wide, cfg.copy_ports,
                         cfg.ticks_per_wide_cycle);
  epochs_[kHelperIdx].init(cfg.issue_helper, cfg.iq_helper, cfg.copy_ports,
                           Tick{1});
  epochs_[kFpIdx].init(cfg.issue_fp, cfg.iq_fp, /*copy_ports=*/0,
                       cfg.ticks_per_wide_cycle);
  regs_ = std::make_unique<std::array<RegState, kNumRegs>>();
  rob_commit_.assign(cfg.rob_entries, 0);
  cp_window_.assign(2 * cfg.rob_entries, CpTrainEntry{});
  res_.workload = program.name;
  res_.config = cfg.steer.describe();

  frontend_ticks_ = cfg.frontend_depth * wide_ticks();
  width_bits_ = cfg.helper_width_bits;
  wt_pow2_ = std::has_single_bit(static_cast<u64>(wide_ticks()));
  wt_shift_ = static_cast<unsigned>(std::countr_zero(static_cast<u64>(wide_ticks())));
  // decide() consults issue-queue occupancy only for the IR imbalance
  // trigger and the balance throttle; skipping the occupancy probes
  // otherwise is output-invisible because ClusterEpoch's lazy drain is
  // monotonic — any later query drains at least as far.
  needs_occ_ = cfg.steer.helper_enabled && (cfg.steer.ir || cfg.steer.balance_throttle);
  cr_on_ = cfg.steer.cr;
  lr_on_ = cfg.steer.lr;
  cp_on_ = cfg.steer.cp;
  ir_block_on_ = cfg.steer.ir_block;

  cache_ = shared_cache ? shared_cache : &own_cache_;
  cache_on_ = cache_->enabled();
  if (cache_on_) {
    res_.counters[Counter::kBbCacheInvalidations] +=
        cache_->bind(program, cfg.steer, cfg.helper_width_bits);
  }
}

Pipeline::~Pipeline() = default;

// ---------------------------------------------------------------------------
// Inter-cluster value movement
// ---------------------------------------------------------------------------

Tick Pipeline::schedule_copy(unsigned from, unsigned to, Tick request_tick,
                             Tick value_ready) {
  // The copy µop is dispatched into the *producer's* cluster (PACT'99
  // scheme). Copies have their own scheduling resources (Section 4), so
  // they do not contend for main issue-queue entries: the copy fires once
  // the value is produced and a copy port is free, then spends the transfer
  // latency on the inter-cluster wires before the consumer's register file
  // is written.
  res_.counters[Counter::kCopyRenameSlots]++;
  const Tick ready = std::max(request_tick, value_ready);
  const Tick issue = epochs_[from].reserve_copy(ready);
  const Tick done =
      issue + cycle_ticks(from) + cfg_.copy_transfer_cycles * wide_ticks();
  ++res_.copies;
  if (from == kHelperIdx && to == kWideIdx) ++res_.copies_n2w;
  if (from == kWideIdx && to == kHelperIdx) ++res_.copies_w2n;
  return done;
}

Tick Pipeline::acquire_prefetched(RegState& st, unsigned cluster) {
  // The value got here ahead of demand thanks to a CP prefetch.
  ++res_.cp_useful;
  st.prefetched = false;
  if (st.producer_seq != kSeqNone) {
    CpTrainEntry& e = cp_window_[st.producer_seq % cp_window_.size()];
    if (e.valid && e.seq == st.producer_seq) e.prefetch_used = true;
  }
  return st.avail[cluster];
}

Tick Pipeline::acquire_demand_copy(RegState& st, unsigned cluster,
                                   Tick dispatch_tick) {
  const unsigned from = st.producer_cluster;
  const Tick avail = schedule_copy(from, cluster, dispatch_tick, st.avail[from]);
  st.present[cluster] = true;
  st.avail[cluster] = avail;
  if (avail > dispatch_tick) res_.copy_wait.add(avail - dispatch_tick);
  // The CP training-window entry only exists (and only matters) when the
  // copy-prefetch scheme maintains the window.
  if (cp_on_ && st.producer_seq != kSeqNone) {
    CpTrainEntry& e = cp_window_[st.producer_seq % cp_window_.size()];
    if (e.valid && e.seq == st.producer_seq) e.copied = true;
  }
  return avail;
}

void Pipeline::maybe_copy_prefetch(RegId dst, u32 pc, unsigned cluster,
                                   Tick complete) {
  if (!cfg_.steer.cp || cluster == kFpIdx) return;
  if (!wpred_.predict_copy(pc)) return;
  RegState& st = (*regs_)[dst];
  const unsigned other = (cluster == kHelperIdx) ? kWideIdx : kHelperIdx;
  if (st.present[other]) return;
  // Hybrid direction policy (Section 3.6): narrow-to-wide prefetches are
  // driven by the CP bit; wide-to-narrow prefetches additionally require the
  // width predictor to announce a narrow value (only narrow values fit in
  // the 8-bit register file).
  if (cluster == kWideIdx && !st.pred_narrow) return;
  const Tick avail = schedule_copy(cluster, other, complete, complete);
  st.present[other] = true;
  st.avail[other] = avail;
  st.prefetched = true;
  ++res_.copy_prefetches;
}

void Pipeline::train_cp_window(SeqNum upto_seq) {
  // Entries are trained lazily when their ring slot is recycled; this is
  // called once at the end of the run to flush the remainder.
  for (CpTrainEntry& e : cp_window_) {
    if (e.valid && e.seq <= upto_seq) {
      wpred_.train_copy(e.pc, e.copied || e.prefetch_used);
      e.valid = false;
    }
  }
}

// ---------------------------------------------------------------------------
// Memory
// ---------------------------------------------------------------------------

Tick Pipeline::memory_access(MemLevel level, bool is_store, Tick agu_done) {
  const Tick wt = wide_ticks();
  // Runs for every load/store; the tick→wide-cycle ceil-division is a shift
  // for the power-of-two clock ratios (1, 2, 4 — everything but the ratio
  // ablation's 3).
  const u64 agu_up = agu_done + wt - 1;
  const u64 agu_cycle = wt_pow2_ ? (agu_up >> wt_shift_) : (agu_up / wt);
  dl0_hits_.add(level == MemLevel::kDl0);
  if (level != MemLevel::kDl0) ul1_hits_.add(level == MemLevel::kUl1);
  // No store-to-load forwarding: each store leaves the machine at the end of
  // its own program-order step, so every load reaches DL0.
  const u64 done_cycle = mem_ports_.access(agu_cycle, level, is_store);
  if (is_store) {
    // The store's cache access happens post-commit; charge the ports now
    // without stalling the pipeline.
    res_.counters[Counter::kStoreAccesses]++;
    return agu_done;
  }
  res_.counters[Counter::kLoadAccesses]++;
  return done_cycle * wt;
}

// ---------------------------------------------------------------------------
// NREADY imbalance metric (Section 3.7)
// ---------------------------------------------------------------------------

void Pipeline::account_nready(unsigned cluster, bool eligible_other, Tick ready,
                              Tick issue) {
  if (!cfg_.steer.helper_enabled || !eligible_other || cluster == kFpIdx) return;
  if (issue <= ready) return;
  // A µop counts toward the imbalance metric (at most once) if, during any
  // cycle it sat ready-but-unissued in its own cluster, the other cluster
  // had an issue slot it could have used (Section 3.7's NREADY). One range
  // probe over [ready, issue) classifies arbitrarily long ready→issue gaps
  // exactly, at every cycle of the other cluster's clock.
  const unsigned other = (cluster == kHelperIdx) ? kWideIdx : kHelperIdx;
  const SlotRangeProbe probe = epochs_[other].free_issue_slot_in(ready, issue);
  if (probe.truncated) res_.counters[Counter::kNreadyTruncations]++;
  if (probe.free) {
    if (cluster == kWideIdx)
      ++res_.nready_w2n;
    else
      ++res_.nready_n2w;
  }
}

// ---------------------------------------------------------------------------
// Main loop
// ---------------------------------------------------------------------------

Pipeline::SrcWidths Pipeline::scan_src_widths(const UopTemplate& t, Tick disp) const {
  SrcWidths w;
  for (u8 j = 0; j < t.n_width_srcs; ++j) {
    const RegState& st = (*regs_)[t.width_srcs[j]];
    const bool narrow = st.known_at <= disp ? st.value_narrow : st.pred_narrow;
    if (!narrow) {
      ++w.wide;
      w.wide_slot = t.width_lane[j];
    } else {
      w.have_narrow = true;
    }
    w.all_narrow = w.all_narrow && narrow;
  }
  if (t.has_imm) {
    w.all_narrow = w.all_narrow && t.imm_narrow;
    if (t.imm_narrow) {
      w.have_narrow = true;
    } else {
      ++w.wide;
      w.wide_slot = Outcome::kImmSlot;
    }
  }
  return w;
}

void Pipeline::feed_record(u32 pc, const UopTemplate& t, u16 outcome) {
  const Tick wt = wide_ticks();
  const SeqNum seq = next_seq_++;

  // Once-per-µop unconditional counters (kFetched, kWpredLookups,
  // kCommitted, uops) are bumped en bloc by feed().

  // ----- fetch (trace cache, wide clock) --------------------------------
  const Tick fetch = fetch_slots_.reserve(fetch_barrier_);

  // ----- rename/dispatch --------------------------------------------------
  // The max chain doubles as per-stage stall attribution: whichever term
  // strictly raises the dispatch-ready tick last is the binding constraint
  // for this µop (ties go to the earlier stage, matching std::max). The
  // counters are diagnostics only — they never feed back into timing.
  // Branchless on purpose: the binding stage flips often enough that a
  // branchy chain costs measurable mispredicts on the hot path.
  static constexpr Counter kStallByStage[4] = {
      Counter::kStallFetch, Counter::kStallCommit, Counter::kStallQueue,
      Counter::kStallRename};
  Tick rename_ready = fetch + frontend_ticks_;
  const Tick commit_gate = rob_commit_[rob_pos_];
  unsigned stage = commit_gate > rename_ready ? 1u : 0u;
  rename_ready = commit_gate > rename_ready ? commit_gate : rename_ready;
  const bool queue_binds = dispatch_backpressure_ > rename_ready;
  stage = queue_binds ? 2u : stage;
  rename_ready = queue_binds ? dispatch_backpressure_ : rename_ready;
  const bool rename_binds = last_dispatch_ > rename_ready;
  stage = rename_binds ? 3u : stage;
  rename_ready = rename_binds ? last_dispatch_ : rename_ready;
  res_.counters[kStallByStage[stage]]++;
  const Tick disp = rename_slots_.reserve(rename_ready);
  last_dispatch_ = disp;

  const bool tracked = t.tracked;
  // The width-table lookup the paper's machine makes for every µop (the
  // counter reflects it), as the outcome model read it at this point of
  // program order. Only tracked µops and steering consume it.
  const WidthPredictor::Prediction rp = Outcome::prediction(outcome);

  // ----- actual widths (used for misprediction detection + training) -----
  // Folded from the value lanes against the template's operand masks
  // instead of re-walking the operand array per record.
  const bool result_narrow_actual = t.has_dst ? Outcome::result_narrow(outcome) : true;
  const bool srcs_narrow_actual =
      (Outcome::src_lanes(outcome) & t.width_lane_mask) == t.width_lane_mask &&
      t.imm_narrow;

  // ----- steering ---------------------------------------------------------
  // The source widths feed steering and, under a CR config, the CR-shape
  // test. A CR-eligible opcode with a memoized kWide verdict still needs
  // them: it trains the carry predictor, whose table entries alias by PC, so
  // skipping the training would perturb other µops' carry predictions.
  SrcWidths srcs;
  if (!t.static_wide || t.wants_cr) srcs = scan_src_widths(t, disp);
  // CR shape: exactly one wide source, at least one narrow, additive op,
  // result expected wide (Section 3.5's 8-32-32 pattern). Only consulted
  // (and only trained) when the CR scheme is configured.
  const bool cr_shape = t.wants_cr && srcs.wide == 1 && srcs.have_narrow &&
                        (!tracked || !rp.narrow);

  SteerDecision decision = SteerDecision::kWide;
  if (!t.static_wide) {
    SteerContext ctx;
    ctx.uop = t.uop;
    ctx.helper_capable = t.helper_capable;
    ctx.frontend_resolvable = t.is_branch_cond;
    ctx.all_srcs_narrow = srcs.all_narrow;
    ctx.result_pred_narrow = rp.narrow;
    ctx.result_confident = rp.confident;
    ctx.cr_shape = cr_shape;
    if (cr_shape) {
      const WidthPredictor::Prediction cp = wpred_.predict_carry(pc);
      ctx.carry_pred_confined = cp.narrow;
      ctx.carry_confident = cp.confident;
    }
    if (t.reads_flags) {
      ctx.flags_producer_in_helper =
          (*regs_)[kRegFlags].producer_cluster == kHelperIdx;
    }
    if (needs_occ_) {
      ctx.iq_occ_wide = epochs_[kWideIdx].occupancy(disp);
      ctx.iq_occ_helper = epochs_[kHelperIdx].occupancy(disp);
      ctx.iq_size_wide = cfg_.iq_wide;
      ctx.iq_size_helper = cfg_.iq_helper;
    }

    decision = policy_.decide(ctx);
  }

  // Block-granularity splitting (Section 3.7's proposed extension): a
  // triggered split opens a block; subsequent splittable µops follow it
  // into the helper so intra-block dataflow never crosses the clusters.
  if (ir_block_on_) {
    if (decision == SteerDecision::kSplit) {
      block_split_remaining_ = cfg_.steer.ir_block_len;
    } else if (block_split_remaining_ > 0 && t.splittable &&
               decision == SteerDecision::kWide) {
      decision = SteerDecision::kSplit;
      res_.counters[Counter::kBlockSplits]++;
    }
    if (block_split_remaining_ > 0) --block_split_remaining_;
  }

  // ----- execution helper --------------------------------------------------
  // Runs the µop in `cluster` starting no earlier than `from_tick`;
  // returns {ready, issue, complete}. A memory µop's first access is served
  // by the level its outcome names. A flushed one accesses again, and that
  // repeat hits DL0: the first access left the line the newest in its set.
  MemLevel mem_level = Outcome::level(outcome);
  struct ExecTimes {
    Tick ready, issue, complete;
  };
  auto exec_in = [&](unsigned cluster, Tick from_tick)
                     __attribute__((always_inline)) -> ExecTimes {
    Tick src_ready = from_tick;
    for (u8 j = 0; j < t.n_srcs; ++j)
      src_ready = std::max(src_ready, acquire_value(t.srcs[j], cluster, from_tick));
    const auto [qdisp, ready, issue] = epochs_[cluster].dispatch(from_tick, src_ready);
    // Dispatch is in order: a full issue queue backpressures the frontend
    // for younger µops as well.
    dispatch_backpressure_ = std::max(dispatch_backpressure_, qdisp);
    res_.counters[Counter::kStallIssue] += issue > ready;
    res_.counters[cluster == kHelperIdx ? Counter::kIssueHelper
                  : cluster == kFpIdx   ? Counter::kIssueFp
                                        : Counter::kIssueWide]++;

    Tick complete;
    if (t.is_mem) {
      const Tick agu_done = issue + cycle_ticks(cluster);
      complete = memory_access(mem_level, t.is_store_op, agu_done);
      mem_level = MemLevel::kDl0;
    } else {
      complete = issue + t.latency_wide * cycle_ticks(cluster);
    }
    return ExecTimes{ready, issue, complete};
  };

  // Actual carry confinement for CR candidates: the operation's output
  // (result, or effective address for memory ops) must agree with the wide
  // source on everything above the helper width (Figure 10's condition).
  // The outcome model tested every operand slot; read the wide one's bit.
  const bool cr_confined_actual = cr_shape && Outcome::upper_match(outcome, srcs.wide_slot);

  unsigned cluster;
  Tick issue = 0;
  Tick complete = 0;
  bool fatal = false;

  if (decision == SteerDecision::kSplit) {
    // ----- IR instruction splitting (Section 3.7) -------------------------
    ++res_.split_uops;
    res_.chunk_uops += 4;
    res_.counters[Counter::kChunkRenameSlots] += 3;
    for (unsigned k = 0; k < 3; ++k) (void)rename_slots_.reserve(disp);

    Tick src_ready = disp;
    for (u8 j = 0; j < t.n_srcs; ++j)
      src_ready = std::max(src_ready, acquire_value(t.srcs[j], kHelperIdx, disp));
    // Four chained 8-bit chunks, LSB to MSB, back to back in the helper.
    Tick prev = src_ready;
    for (unsigned k = 0; k < 4; ++k) {
      const ClusterEpoch::Dispatched d = epochs_[kHelperIdx].dispatch(disp, prev);
      dispatch_backpressure_ = std::max(dispatch_backpressure_, d.qdisp);
      res_.counters[Counter::kIssueHelper]++;
      if (k == 0) issue = d.issue;
      prev = d.issue + cycle_ticks(kHelperIdx);
    }
    complete = prev;
    cluster = kHelperIdx;
    account_nready(kHelperIdx, true, std::max(src_ready, disp), issue);
  } else {
    cluster = t.is_fp_op ? kFpIdx
              : (decision == SteerDecision::kWide ? kWideIdx : kHelperIdx);
    ExecTimes t2 = exec_in(cluster, disp);

    // ----- width misprediction detection (fatal = flush + resteer) -------
    if (cluster == kHelperIdx) {
      if (decision == SteerDecision::kHelper) {
        fatal = !srcs_narrow_actual || (tracked && !result_narrow_actual);
      } else if (decision == SteerDecision::kHelperCr) {
        // Carry escaped the low byte: caught by the carry-out signal.
        fatal = !cr_confined_actual;
        if (fatal) ++res_.cr_violations;
      }
      if (fatal) {
        // Flushing recovery (Section 3.2): squash from this µop, refill
        // the frontend, re-execute in the wide backend. CR violations are
        // caught by the AGU/ALU carry-out signal at execute; 8-8-8 result
        // width violations are only known at writeback (data return).
        const Tick detect = decision == SteerDecision::kHelperCr
                                ? t2.issue + cycle_ticks(kHelperIdx)
                                : t2.complete;
        fetch_barrier_ = std::max(fetch_barrier_, detect);
        const Tick redisp = detect + frontend_ticks_;
        (void)rename_slots_.reserve(redisp);
        t2 = exec_in(kWideIdx, redisp);
        cluster = kWideIdx;
        res_.counters[Counter::kFlushRefills]++;
      }
    }
    issue = t2.issue;
    complete = t2.complete;

    // NREADY eligibility is structural (Section 3.7): a wide µop counts
    // against the helper when the helper had a free slot it *could* have
    // used (via steering or splitting), and vice versa. static_wide µops
    // are never eligible (helper disabled or helper-incapable op class),
    // so the probe is skipped with them.
    if (!t.static_wide) {
      const bool eligible_other = cluster == kHelperIdx || t.helper_capable;
      account_nready(cluster, eligible_other, t2.ready, t2.issue);
    }
  }

  // ----- steering statistics ---------------------------------------------
  if (cluster == kHelperIdx) {
    ++res_.to_helper;
    if (decision == SteerDecision::kHelperCr) ++res_.cr_steered;
    if (t.is_branch_op) ++res_.br_steered;
  } else if (cluster != kFpIdx) {
    ++res_.to_wide;
  }

  // ----- width prediction classification (Figure 5) -----------------------
  if (tracked) {
    if (fatal && decision != SteerDecision::kHelperCr) {
      ++res_.wp_fatal;
    } else if (rp.narrow != result_narrow_actual) {
      ++res_.wp_nonfatal;
    } else {
      ++res_.wp_correct;
    }
  }
  if (cr_shape) wpred_.train_carry(pc, cr_confined_actual);

  // ----- branches -----------------------------------------------------------
  if (t.is_branch_cond) {
    ++res_.branches;
    if (Outcome::mispredicted(outcome)) {
      ++res_.branch_mispredicts;
      fetch_barrier_ = std::max(fetch_barrier_, complete);
    }
  }

  // ----- writeback: register location/width bookkeeping -------------------
  if (t.has_dst) {
    RegState& st = (*regs_)[t.dst];
    // Every field is (re)assigned — no default-construct-then-overwrite.
    st.present = {false, false, false};
    st.avail = {kTickNever, kTickNever, kTickNever};
    st.present[cluster] = true;
    st.avail[cluster] = complete;
    st.value_narrow = result_narrow_actual;
    st.pred_narrow = tracked ? rp.narrow : result_narrow_actual;
    st.known_at = complete;
    st.producer_pc = pc;
    st.producer_seq = seq;
    st.producer_cluster = cluster;
    st.prefetched = false;
    res_.counters[cluster == kHelperIdx ? Counter::kRfWriteHelper : Counter::kRfWriteWide]++;

    if (decision == SteerDecision::kSplit) {
      if (ir_block_on_) {
        // Block mode: results stay helper-resident; only µops outside the
        // block that actually consume the value pay a demand copy.
      } else {
        // The full 32-bit result is prefetched back to the wide cluster
        // via four 8-bit copy µops (Section 3.7).
        Tick wavail = complete;
        for (unsigned k = 0; k < 4; ++k)
          wavail = std::max(
              wavail, schedule_copy(kHelperIdx, kWideIdx, complete, complete));
        st.present[kWideIdx] = true;
        st.avail[kWideIdx] = wavail;
      }
    } else if (decision == SteerDecision::kHelperCr && cluster == kHelperIdx &&
               !result_narrow_actual) {
      if (t.is_load_op) {
        // CR load: the AGU add ran in the helper but the (wide) data is
        // delivered by the shared MOB straight into the wide register
        // file — the 8-bit RF cannot hold it.
        st.present = {true, false, false};
        st.avail = {complete, kTickNever, kTickNever};
        st.producer_cluster = kWideIdx;
      }
      // CR arithmetic: the low byte lives in the helper; the upper 24
      // bits stay in the tagged wide source register (Section 3.5), so a
      // wide consumer reconstructs the value through the ordinary demand
      // copy of the low byte. Nothing extra to do here.
    }

    // LR (Section 3.4): the MOB is shared, so 8-bit loads allocate a
    // register in *both* clusters and the load data is written to both
    // register files at writeback — no copy µop needed. This covers both
    // directions: a byte load whose address resolves in the wide cluster
    // feeding a narrow consumer, and a helper-executed byte load feeding
    // a wide consumer.
    if (lr_on_ && t.is_load_byte && cluster != kFpIdx) {
      const unsigned other = cluster == kHelperIdx ? kWideIdx : kHelperIdx;
      if (!st.present[other] && result_narrow_actual) {
        st.present[other] = true;
        st.avail[other] = complete + cfg_.copy_transfer_cycles * wt;
        ++res_.replicated_loads;
        res_.counters[other == kHelperIdx ? Counter::kRfWriteHelper : Counter::kRfWriteWide]++;
      }
    }

    // CP training-window bookkeeping + prefetch generation. The window only
    // feeds the copy predictor, which only the CP scheme consults.
    if (cp_on_) {
      CpTrainEntry& slot = cp_window_[cp_pos_];
      if (slot.valid) wpred_.train_copy(slot.pc, slot.copied || slot.prefetch_used);
      slot = CpTrainEntry{seq, pc, false, false, true};
      maybe_copy_prefetch(t.dst, pc, cluster, complete);
    }
  }
  if (t.writes_flags) {
    RegState& fl = (*regs_)[kRegFlags];
    fl.present = {false, false, false};
    fl.avail = {kTickNever, kTickNever, kTickNever};
    fl.present[cluster] = true;
    fl.avail[cluster] = complete;
    fl.value_narrow = true;  // condition codes are narrow by definition
    fl.pred_narrow = true;
    fl.known_at = complete;
    fl.producer_pc = pc;
    fl.producer_seq = kSeqNone;  // flags don't participate in CP training
    fl.producer_cluster = cluster;
    fl.prefetched = false;
  }

  // ----- commit (in order, wide clock) -------------------------------------
  const Tick ctick = commit_slots_.reserve(std::max(complete, last_commit_));
  last_commit_ = std::max(last_commit_, ctick);
  rob_commit_[rob_pos_] = ctick;
  if (++rob_pos_ == cfg_.rob_entries) rob_pos_ = 0;
  if (++cp_pos_ == cp_window_.size()) cp_pos_ = 0;
  // Commit ticks are non-decreasing (each reserve is clamped to the last),
  // so the running final_tick is a plain store, not a max.
  res_.final_tick = ctick;
}

void Pipeline::bump_per_uop_counters(u64 n) {
  res_.counters[Counter::kFetched] += n;
  res_.counters[Counter::kWpredLookups] += n;
  res_.counters[Counter::kCommitted] += n;
  res_.uops += n;
}

void Pipeline::walk(std::span<const u16> outcomes, std::span<const u32> jumps) {
  HCSIM_CHECK(next_seq_ > 0 || outcomes.empty() || Outcome::jump(outcomes.front()),
              "Pipeline::feed: a walk must start at a jump");
  bump_per_uop_counters(outcomes.size());
  const std::size_t program_size = program_.uops.size();
  const u32* jump = jumps.data();
  const u32* const jumps_end = jump + jumps.size();
  u32 pc = walk_pc_;
  for (const u16 outcome : outcomes) {
    if (Outcome::jump(outcome)) {
      HCSIM_CHECK(jump != jumps_end, "Pipeline::feed: a jump bit without its jump");
      pc = *jump++;
    } else {
      ++pc;
    }
    HCSIM_CHECK(pc < program_size, "Pipeline::feed: pc outside the program");
    feed_record(pc, lookup_template(pc), outcome);
  }
  HCSIM_CHECK(jump == jumps_end, "Pipeline::feed: a jump without its jump bit");
  walk_pc_ = pc;
}

void Pipeline::feed(std::span<const TraceRecord> recs) {
  HCSIM_CHECK(own_model_ || next_seq_ == 0,
              "Pipeline::feed: records after shared outcomes");
  if (!own_model_) {
    own_model_ = std::make_unique<OutcomeModel>(cfg_, program_);
    own_jumps_.reserve(kOutcomeBlock);
  }
  std::array<u16, kOutcomeBlock> outcomes;
  while (!recs.empty()) {
    const std::size_t n = std::min(recs.size(), kOutcomeBlock);
    own_model_->run(recs.first(n), outcomes);
    // The pc that continues the last record walked, if any.
    const u64 next_pc = next_seq_ == 0 ? kWalkStart : u64{walk_pc_} + 1;
    own_jumps_.clear();
    mark_jumps(recs.first(n), next_pc, outcomes, own_jumps_);
    walk(std::span<const u16>(outcomes).first(n), own_jumps_);
    recs = recs.subspan(n);
  }
}

void Pipeline::feed(std::span<const u16> outcomes, std::span<const u32> jumps) {
  HCSIM_CHECK(!own_model_, "Pipeline::feed: shared outcomes after private ones");
  walk(outcomes, jumps);
}

Pipeline::StatsCheckpoint Pipeline::checkpoint_stats() const {
  StatsCheckpoint cp;
  cp.res = res_;
  cp.dl0_hits = dl0_hits_.num;
  cp.dl0_accesses = dl0_hits_.den;
  cp.ul1_hits = ul1_hits_.num;
  cp.ul1_accesses = ul1_hits_.den;
  return cp;
}

SimResult Pipeline::finish() {
  const Tick wt = wide_ticks();
  train_cp_window(next_seq_);
  res_.cp_wasted = res_.copy_prefetches >= res_.cp_useful
                       ? res_.copy_prefetches - res_.cp_useful
                       : 0;
  res_.wide_cycles = static_cast<double>(res_.final_tick) / static_cast<double>(wt);
  res_.ipc = res_.wide_cycles > 0
                 ? static_cast<double>(res_.uops) / res_.wide_cycles
                 : 0.0;
  res_.dl0_hit_rate = dl0_hits_.value();
  res_.ul1_hit_rate = ul1_hits_.value();
  res_.counters[Counter::kDl0Accesses] = dl0_hits_.den;
  res_.counters[Counter::kUl1Accesses] = ul1_hits_.den;
  return res_;
}

SimResult Pipeline::run(TraceCursor& cursor) {
  for (std::span<const TraceRecord> chunk = cursor.next_chunk(); !chunk.empty();
       chunk = cursor.next_chunk()) {
    feed(chunk);
  }
  return finish();
}

SimResult simulate(const MachineConfig& cfg, const Trace& trace) {
  TraceVectorCursor cursor(trace);
  Pipeline p(cfg, trace.program);
  return p.run(cursor);
}

SimResult simulate(const MachineConfig& cfg, TraceCursor& cursor) {
  Pipeline p(cfg, cursor.program());
  return p.run(cursor);
}

}  // namespace hcsim
