// Integration tests for the clustered pipeline model using hand-built
// traces with known dataflow, plus invariants on generated workloads.
#include <gtest/gtest.h>

#include <string>

#include "core/pipeline.hpp"
#include "util/narrow.hpp"
#include "wload/executor.hpp"
#include "wload/profile.hpp"

namespace hcsim {
namespace {

// Build a trace directly (program + records) so every value is controlled.
struct TraceBuilder {
  Trace trace;

  u32 emit(StaticUop u, TraceRecord r, u32 target = 0) {
    u.pc = static_cast<u32>(trace.program.uops.size());
    r.pc = u.pc;
    trace.program.uops.push_back(u);
    trace.program.branch_targets.push_back(target);
    trace.records.push_back(r);
    return u.pc;
  }

  void movi(RegId d, u32 imm) {
    StaticUop u;
    u.opcode = Opcode::kMovImm;
    u.dst = d;
    u.has_imm = true;
    u.imm = imm;
    TraceRecord r;
    r.result = imm;
    emit(u, r);
  }

  void add(RegId d, RegId a, RegId b, u32 va, u32 vb) {
    StaticUop u;
    u.opcode = Opcode::kAdd;
    u.dst = d;
    u.srcs = {a, b, kRegNone};
    TraceRecord r;
    r.src_vals = {va, vb, 0};
    r.result = va + vb;
    r.flags_val = va + vb;
    emit(u, r);
  }

  /// Repeat the same record stream n times: models a loop body revisiting
  /// its static µops, which is what lets the predictors warm up.
  void repeat_all(unsigned n) {
    const auto base_records = trace.records;
    for (unsigned i = 1; i < n; ++i)
      trace.records.insert(trace.records.end(), base_records.begin(),
                           base_records.end());
  }

  /// Append one more dynamic instance of an existing static µop.
  void redo(u32 pc, TraceRecord r) {
    r.pc = pc;
    trace.records.push_back(r);
  }
};

MachineConfig baseline() { return monolithic_baseline(); }

TEST(Pipeline, NreadyClassifiesWaitingUopsWithoutTruncation) {
  // Wide-valued independent adds are helper-capable but steer wide; six
  // dispatch per wide cycle against an issue width of three, so some sit
  // ready-but-unissued while the helper cluster idles: textbook NREADY
  // w2n events. The ring-ledger range probe classifies every gap exactly —
  // the old 64-sample stepping loop recorded nothing past its cap, which
  // the truncation counter now makes observable (and must stay zero here).
  TraceBuilder tb;
  tb.movi(kRegEax, 0x123456);  // wide value
  for (int i = 0; i < 40; ++i)
    tb.add(kRegEbx, kRegEax, kRegEax, 0x123456, 0x123456);
  const SimResult r = simulate(helper_machine(steering_888()), tb.trace);
  EXPECT_GT(r.nready_w2n, 0u);
  EXPECT_EQ(r.counters.get("nready_truncations"), 0u);
}

TEST(Pipeline, CommitsEveryUop) {
  TraceBuilder tb;
  tb.movi(kRegEax, 1);
  tb.movi(kRegEbx, 2);
  tb.add(kRegEcx, kRegEax, kRegEbx, 1, 2);
  const SimResult r = simulate(baseline(), tb.trace);
  EXPECT_EQ(r.uops, 3u);
  EXPECT_GT(r.final_tick, 0u);
  EXPECT_EQ(r.counters.get("committed"), 3u);
}

TEST(Pipeline, BaselineUsesNoHelperResources) {
  const Trace t = generate_trace(spec_profile("gcc"), 20000);
  const SimResult r = simulate(baseline(), t);
  EXPECT_EQ(r.to_helper, 0u);
  EXPECT_EQ(r.copies, 0u);
  EXPECT_EQ(r.split_uops, 0u);
  EXPECT_EQ(r.counters.get("issue_helper"), 0u);
  EXPECT_EQ(r.nready_w2n, 0u);
}

TEST(Pipeline, SteeringPartitionInvariant) {
  const Trace t = generate_trace(spec_profile("gcc"), 20000);
  const SimResult r = simulate(helper_machine(steering_ir()), t);
  // Every committed µop ran in exactly one backend.
  EXPECT_EQ(r.to_helper + r.to_wide + r.counters.get("issue_fp"), r.uops);
}

TEST(Pipeline, DeterministicRuns) {
  const Trace t = generate_trace(spec_profile("twolf"), 20000);
  const SimResult a = simulate(helper_machine(steering_ir()), t);
  const SimResult b = simulate(helper_machine(steering_ir()), t);
  EXPECT_EQ(a.final_tick, b.final_tick);
  EXPECT_EQ(a.copies, b.copies);
  EXPECT_EQ(a.to_helper, b.to_helper);
  EXPECT_EQ(a.wp_fatal, b.wp_fatal);
}

TEST(Pipeline, IpcBoundedByMachineWidths) {
  const Trace t = generate_trace(spec_profile("gcc"), 20000);
  const MachineConfig cfg = baseline();
  const SimResult r = simulate(cfg, t);
  EXPECT_LE(r.ipc, static_cast<double>(cfg.commit_width));
  EXPECT_GT(r.ipc, 0.0);
}

TEST(Pipeline, DependentChainSlowerThanIndependentOps) {
  // A chain of dependent adds must take at least one wide cycle each on the
  // baseline; independent adds pack 3 per cycle.
  TraceBuilder chain;
  chain.movi(kRegEax, 1);
  for (int i = 0; i < 60; ++i) chain.add(kRegEax, kRegEax, kRegEax, 1, 1);

  TraceBuilder indep;
  indep.movi(kRegEax, 1);
  for (int i = 0; i < 60; ++i)
    indep.add(static_cast<RegId>(kRegT0 + (i % 6)), kRegEax, kRegEax, 1, 1);

  const SimResult rc = simulate(baseline(), chain.trace);
  const SimResult ri = simulate(baseline(), indep.trace);
  EXPECT_GT(rc.final_tick, ri.final_tick);
}

TEST(Pipeline, HelperAcceleratesNarrowChain) {
  // A dependent narrow chain inside a "loop" (repeated pcs, so the width
  // predictor gains confidence) finishes faster on the 2x-clocked helper.
  TraceBuilder tb;
  tb.movi(kRegEax, 1);
  for (int i = 0; i < 20; ++i) tb.add(kRegEax, kRegEax, kRegEax, 1, 1);
  tb.repeat_all(30);
  const SimResult base = simulate(baseline(), tb.trace);
  const SimResult helper = simulate(helper_machine(steering_888()), tb.trace);
  EXPECT_LT(helper.final_tick, base.final_tick);
  EXPECT_GT(helper.to_helper, 300u);
}

TEST(Pipeline, WideValuesDoNotSteerTo888) {
  TraceBuilder tb;
  tb.movi(kRegEax, 0x10000);  // wide
  for (int i = 0; i < 50; ++i) tb.add(kRegEbx, kRegEax, kRegEax, 0x10000, 0x10000);
  const SimResult r = simulate(helper_machine(steering_888()), tb.trace);
  EXPECT_EQ(r.to_helper, 0u);
}

TEST(Pipeline, CrossClusterDependencyGeneratesCopies) {
  // narrow producers (helper) feeding a wide computation -> copies.
  TraceBuilder tb;
  tb.movi(kRegEax, 3);                                // narrow -> helper
  tb.movi(kRegEbx, 0x123456);                         // wide   -> wide
  tb.add(kRegEax, kRegEax, kRegEax, 3, 3);            // helper (once warm)
  tb.add(kRegEcx, kRegEbx, kRegEax, 0x123456, 6);     // wide, needs eax
  tb.repeat_all(40);
  const SimResult r = simulate(helper_machine(steering_888()), tb.trace);
  EXPECT_GT(r.to_helper, 0u);
  EXPECT_GT(r.copies, 0u);
  EXPECT_GT(r.copies_n2w, 0u);
}

TEST(Pipeline, FatalWidthMispredictionFlushesAndResteers) {
  // Train a pc as narrow, then produce a wide value at the same pc: the µop
  // is steered to the helper on a confident narrow prediction and must be
  // squashed and re-executed wide.
  TraceBuilder tb;
  StaticUop u;
  u.opcode = Opcode::kAdd;
  u.dst = kRegEax;
  u.srcs = {kRegEbx, kRegEcx, kRegNone};
  TraceRecord narrow;
  narrow.src_vals = {1, 2, 0};
  narrow.result = 3;
  narrow.flags_val = 3;
  const u32 pc = tb.emit(u, narrow);
  // 30 narrow instances of the same static µop to build confidence...
  for (int i = 0; i < 30; ++i) tb.redo(pc, narrow);
  // ...then an instance whose result is wide (sources still narrow so the
  // 8-8-8 rule fires on prediction, and the result violates).
  TraceRecord wide;
  wide.src_vals = {100, 200, 0};
  wide.result = 0x12345;
  wide.flags_val = 0x12345;
  tb.redo(pc, wide);

  const SimResult r = simulate(helper_machine(steering_888()), tb.trace);
  EXPECT_GE(r.wp_fatal, 1u);
  EXPECT_GE(r.counters.get("flush_refills"), 1u);
}

TEST(Pipeline, FlushPenaltyCostsTime) {
  // Same trace with and without a width-violating tail instance: the
  // violating version must pay at least a frontend refill.
  auto make = [](bool violate) {
    TraceBuilder tb;
    StaticUop u;
    u.opcode = Opcode::kAdd;
    u.dst = kRegEax;
    u.srcs = {kRegEbx, kRegEcx, kRegNone};
    TraceRecord r;
    r.src_vals = {1, 2, 0};
    r.result = 3;
    const u32 pc = tb.emit(u, r);
    for (int i = 0; i < 30; ++i) tb.redo(pc, r);
    if (violate) r.result = 0x55555;  // wide: fatal in the helper
    tb.redo(pc, r);
    return tb.trace;
  };
  const SimResult rc = simulate(helper_machine(steering_888()), make(false));
  const SimResult rv = simulate(helper_machine(steering_888()), make(true));
  const MachineConfig cfg = helper_machine(steering_888());
  EXPECT_GE(rv.final_tick,
            rc.final_tick + cfg.frontend_depth * cfg.ticks_per_wide_cycle);
}

TEST(Pipeline, BranchMispredictionCostsTime) {
  // A data-dependent 50/50 branch stream vs an always-taken stream.
  auto make = [](bool alternate) {
    TraceBuilder tb;
    StaticUop cmp;
    cmp.opcode = Opcode::kTest;
    cmp.srcs = {kRegEax, kRegEax, kRegNone};
    StaticUop br;
    br.opcode = Opcode::kBranchCond;
    br.srcs = {kRegFlags, kRegNone, kRegNone};
    br.has_imm = true;
    br.imm = kCondEq;
    u32 x = 12345;
    for (int i = 0; i < 300; ++i) {
      TraceRecord rc;
      rc.src_vals = {1, 1, 0};
      rc.flags_val = 1;
      tb.emit(cmp, rc);
      TraceRecord rb;
      x = x * 1103515245 + 12345;
      rb.taken = alternate ? ((x >> 16) & 1) : false;
      tb.emit(br, rb, 0);
    }
    return tb.trace;
  };
  const SimResult predictable = simulate(baseline(), make(false));
  const SimResult random = simulate(baseline(), make(true));
  EXPECT_GT(random.final_tick, predictable.final_tick);
  EXPECT_GT(random.branch_mispredicts, predictable.branch_mispredicts);
}

TEST(Pipeline, RobLimitsInFlightWork) {
  // With a tiny ROB the same trace takes longer (less overlap).
  const Trace t = generate_trace(spec_profile("gcc"), 10000);
  MachineConfig small = baseline();
  small.rob_entries = 8;
  const SimResult rs = simulate(small, t);
  const SimResult rb = simulate(baseline(), t);
  EXPECT_GT(rs.final_tick, rb.final_tick);
}

TEST(Pipeline, NarrowIqThrottlesIssue) {
  const Trace t = generate_trace(spec_profile("gcc"), 10000);
  MachineConfig tiny = baseline();
  tiny.iq_wide = 4;
  const SimResult rt = simulate(tiny, t);
  const SimResult rb = simulate(baseline(), t);
  EXPECT_GT(rt.final_tick, rb.final_tick);
}

TEST(Pipeline, MemoryLatencySlowsExecution) {
  // mcf's pointer chase serializes loads, so cache/memory latency is on the
  // critical path.
  const Trace t = generate_trace(spec_profile("mcf"), 10000);
  MachineConfig slow = baseline();
  slow.mem.dl0.size_bytes = 1024;  // thrash DL0
  slow.mem.ul1.size_bytes = 64 * 1024;
  slow.mem.main_memory_cycles = 2000;
  const SimResult rs = simulate(slow, t);
  const SimResult rb = simulate(baseline(), t);
  EXPECT_GT(rs.final_tick, rb.final_tick);
}

TEST(Pipeline, LrReplicatesByteLoads) {
  const Trace t = generate_trace(spec_profile("gzip"), 30000);
  const SimResult no_lr = simulate(helper_machine(steering_888_br()), t);
  const SimResult lr = simulate(helper_machine(steering_888_br_lr()), t);
  EXPECT_GT(lr.replicated_loads, 0u);
  EXPECT_LT(lr.copies, no_lr.copies);
}

TEST(Pipeline, CrSteersMixedWidthWork) {
  const Trace t = generate_trace(spec_profile("gcc"), 30000);
  const SimResult no_cr = simulate(helper_machine(steering_888_br_lr()), t);
  const SimResult cr = simulate(helper_machine(steering_888_br_lr_cr()), t);
  EXPECT_GT(cr.cr_steered, 0u);
  EXPECT_GT(cr.to_helper, no_cr.to_helper);
}

TEST(Pipeline, CpGeneratesPrefetchesWithMeasuredAccuracy) {
  const Trace t = generate_trace(spec_profile("gcc"), 30000);
  const SimResult cp = simulate(helper_machine(steering_cp()), t);
  EXPECT_GT(cp.copy_prefetches, 0u);
  EXPECT_EQ(cp.cp_useful + cp.cp_wasted, cp.copy_prefetches);
  // The last-value copy predictor should be mostly useful (paper: ~90%).
  EXPECT_GT(static_cast<double>(cp.cp_useful) /
                static_cast<double>(cp.copy_prefetches),
            0.5);
}

TEST(Pipeline, IrSplitsProduceChunksAndCopies) {
  const Trace t = generate_trace(spec_profile("parser"), 30000);
  const SimResult ir = simulate(helper_machine(steering_ir()), t);
  EXPECT_GT(ir.split_uops, 0u);
  EXPECT_EQ(ir.chunk_uops, 4 * ir.split_uops);
}

TEST(Pipeline, IrNodestProducesFewerCopiesThanFullIr) {
  const Trace t = generate_trace(spec_profile("parser"), 30000);
  const SimResult full = simulate(helper_machine(steering_ir()), t);
  const SimResult nodest = simulate(helper_machine(steering_ir_nodest()), t);
  EXPECT_LE(nodest.copies, full.copies);
}

TEST(Pipeline, BrSteersBranchesAndCutsCopies) {
  const Trace t = generate_trace(spec_profile("gcc"), 30000);
  const SimResult p888 = simulate(helper_machine(steering_888()), t);
  const SimResult br = simulate(helper_machine(steering_888_br()), t);
  EXPECT_EQ(p888.br_steered, 0u);
  EXPECT_GT(br.br_steered, 0u);
  EXPECT_LT(br.copy_frac(), p888.copy_frac());
}

TEST(Pipeline, ClockRatioOneRemovesHelperSpeedAdvantage) {
  TraceBuilder tb;
  tb.movi(kRegEax, 1);
  for (int i = 0; i < 15; ++i) tb.add(kRegEax, kRegEax, kRegEax, 1, 1);
  tb.repeat_all(25);
  MachineConfig same_clock = helper_machine(steering_888());
  same_clock.ticks_per_wide_cycle = 1;
  MachineConfig fast = helper_machine(steering_888());
  const SimResult r1 = simulate(same_clock, tb.trace);
  const SimResult r2 = simulate(fast, tb.trace);
  // 2x helper clock must beat 1x on a dependence-bound narrow chain.
  // (final_tick is in ticks of different length; compare wide cycles.)
  EXPECT_LT(r2.wide_cycles, r1.wide_cycles);
}


TEST(Pipeline, BlockSplittingCutsCopyBacksVsFullIr) {
  // Section 3.7's proposed extension: sending whole blocks of split work to
  // the helper avoids the per-split 4-copy result prefetch, so at equal or
  // higher split counts the block variant generates fewer copies per split.
  const Trace t = generate_trace(spec_profile("parser"), 30000);
  const SimResult full = simulate(helper_machine(steering_ir()), t);
  const SimResult block = simulate(helper_machine(steering_ir_block()), t);
  ASSERT_GT(full.split_uops, 0u);
  ASSERT_GT(block.split_uops, 0u);
  const double full_cps = static_cast<double>(full.copies) /
                          static_cast<double>(full.split_uops);
  const double block_cps = static_cast<double>(block.copies) /
                           static_cast<double>(block.split_uops);
  EXPECT_LT(block_cps, full_cps);
}

TEST(Pipeline, BlockSplittingRecruitsExtraSplits) {
  const Trace t = generate_trace(spec_profile("parser"), 30000);
  const SimResult full = simulate(helper_machine(steering_ir()), t);
  const SimResult block = simulate(helper_machine(steering_ir_block()), t);
  EXPECT_GE(block.split_uops + block.counters.get("block_splits"),
            full.split_uops);
}

TEST(Pipeline, SpeedupVsComputesRatio) {
  SimResult base, fast;
  base.final_tick = 2000;
  fast.final_tick = 1000;
  EXPECT_DOUBLE_EQ(fast.speedup_vs(base), 2.0);
}

TEST(Pipeline, EmptyTraceIsHarmless) {
  Trace t;
  t.program.name = "empty";
  t.program.uops.push_back(StaticUop{});
  t.program.branch_targets.push_back(0);
  const SimResult r = simulate(baseline(), t);
  EXPECT_EQ(r.uops, 0u);
  EXPECT_EQ(r.final_tick, 0u);
}

// --- machine_config_error ---------------------------------------------------

/// One MachineConfig field, by name, and a way to zero it.
struct ConfigField {
  const char* name;
  void (*zero)(MachineConfig&);
};

// Every field a zero breaks: machine_config_error must name it.
const ConfigField kZeroIsUnrunnable[] = {
    {"fetch_width", [](MachineConfig& c) { c.fetch_width = 0; }},
    {"rename_width", [](MachineConfig& c) { c.rename_width = 0; }},
    {"commit_width", [](MachineConfig& c) { c.commit_width = 0; }},
    {"rob_entries", [](MachineConfig& c) { c.rob_entries = 0; }},
    {"issue_wide", [](MachineConfig& c) { c.issue_wide = 0; }},
    {"issue_helper", [](MachineConfig& c) { c.issue_helper = 0; }},
    {"issue_fp", [](MachineConfig& c) { c.issue_fp = 0; }},
    {"iq_wide", [](MachineConfig& c) { c.iq_wide = 0; }},
    {"iq_helper", [](MachineConfig& c) { c.iq_helper = 0; }},
    {"iq_fp", [](MachineConfig& c) { c.iq_fp = 0; }},
    {"ticks_per_wide_cycle", [](MachineConfig& c) { c.ticks_per_wide_cycle = 0; }},
    {"copy_ports", [](MachineConfig& c) { c.copy_ports = 0; }},
    {"wpred.entries", [](MachineConfig& c) { c.wpred.entries = 0; }},
    {"bpred.entries", [](MachineConfig& c) { c.bpred.entries = 0; }},
    {"mem.dl0.line_bytes", [](MachineConfig& c) { c.mem.dl0.line_bytes = 0; }},
    {"mem.dl0.ways", [](MachineConfig& c) { c.mem.dl0.ways = 0; }},
    {"mem.dl0.size_bytes", [](MachineConfig& c) { c.mem.dl0.size_bytes = 0; }},
    {"mem.dl0.ports", [](MachineConfig& c) { c.mem.dl0.ports = 0; }},
    {"mem.ul1.line_bytes", [](MachineConfig& c) { c.mem.ul1.line_bytes = 0; }},
    {"mem.ul1.ways", [](MachineConfig& c) { c.mem.ul1.ways = 0; }},
    {"mem.ul1.size_bytes", [](MachineConfig& c) { c.mem.ul1.size_bytes = 0; }},
    {"mem.ul1.ports", [](MachineConfig& c) { c.mem.ul1.ports = 0; }},
};

// Every other numeric field: zero is a legal (if odd) machine.
const ConfigField kZeroIsRunnable[] = {
    {"frontend_depth", [](MachineConfig& c) { c.frontend_depth = 0; }},
    {"helper_width_bits", [](MachineConfig& c) { c.helper_width_bits = 0; }},
    {"copy_transfer_cycles", [](MachineConfig& c) { c.copy_transfer_cycles = 0; }},
    {"mem.main_memory_cycles", [](MachineConfig& c) { c.mem.main_memory_cycles = 0; }},
    {"mem.dl0.latency_cycles", [](MachineConfig& c) { c.mem.dl0.latency_cycles = 0; }},
    {"mem.ul1.latency_cycles", [](MachineConfig& c) { c.mem.ul1.latency_cycles = 0; }},
    {"wpred.confidence_threshold", [](MachineConfig& c) { c.wpred.confidence_threshold = 0; }},
    {"bpred.history_bits", [](MachineConfig& c) { c.bpred.history_bits = 0; }},
    {"steer.ir_block_len", [](MachineConfig& c) { c.steer.ir_block_len = 0; }},
};

TEST(MachineConfig, StockConfigsAreRunnable) {
  EXPECT_EQ(machine_config_error(monolithic_baseline()), "");
  for (const SteeringConfig& steer :
       {steering_888(), steering_888_br_lr_cr(), steering_cp(), steering_ir(),
        steering_ir_block()})
    EXPECT_EQ(machine_config_error(helper_machine(steer)), "") << steer.describe();
}

TEST(MachineConfig, EachZeroFieldIsNamed) {
  for (const ConfigField& f : kZeroIsUnrunnable) {
    MachineConfig cfg = helper_machine(steering_ir());
    f.zero(cfg);
    const std::string error = machine_config_error(cfg);
    EXPECT_EQ(error.rfind(f.name, 0), 0u) << f.name << ": '" << error << "'";
  }
}

TEST(MachineConfig, OtherZeroFieldsStillSimulate) {
  const Trace t = generate_trace(spec_profile("gcc"), 3000);
  for (const ConfigField& f : kZeroIsRunnable) {
    MachineConfig cfg = helper_machine(steering_ir_block());
    f.zero(cfg);
    ASSERT_EQ(machine_config_error(cfg), "") << f.name;
    EXPECT_EQ(simulate(cfg, t).uops, 3000u) << f.name;
  }
}

TEST(MachineConfig, OutOfRangeValuesAreNamed) {
  const auto error_for = [](void (*set)(MachineConfig&)) {
    MachineConfig cfg = helper_machine(steering_ir());
    set(cfg);
    return machine_config_error(cfg);
  };
  // Slot ledgers count a cycle's reservations in a byte.
  EXPECT_EQ(error_for([](MachineConfig& c) { c.issue_helper = 256; }),
            "issue_helper must be in 1..255");
  EXPECT_EQ(error_for([](MachineConfig& c) { c.copy_ports = 256; }),
            "copy_ports must be in 1..255");
  EXPECT_EQ(error_for([](MachineConfig& c) { c.bpred.entries = 3000; }),
            "bpred.entries must be a power of two");
  EXPECT_EQ(error_for([](MachineConfig& c) { c.mem.dl0.line_bytes = 48; }),
            "mem.dl0.line_bytes must be a power of two");
  EXPECT_EQ(error_for([](MachineConfig& c) { c.mem.ul1.size_bytes = 3 << 20; }),
            "mem.ul1.size_bytes / (line_bytes * ways) sets must be a power of two");
  // Fields that size an allocation are bounded, so one job cannot exhaust
  // the daemon's memory; the largest configs in use sit far below.
  EXPECT_EQ(error_for([](MachineConfig& c) { c.rob_entries = 65537; }),
            "rob_entries must be in 1..65536");
  EXPECT_EQ(error_for([](MachineConfig& c) { c.rob_entries = 4294967295u; }),
            "rob_entries must be in 1..65536");
  EXPECT_EQ(error_for([](MachineConfig& c) { c.wpred.entries = 1u << 21; }),
            "wpred.entries must be at most 2^20");
  EXPECT_EQ(error_for([](MachineConfig& c) { c.bpred.entries = 1u << 31; }),
            "bpred.entries must be at most 2^20");
  EXPECT_EQ(error_for([](MachineConfig& c) { c.mem.ul1.size_bytes = 1u << 27; }),
            "mem.ul1.size_bytes / line_bytes must be at most 2^20 lines");
  // ... and each bound admits its largest value.
  EXPECT_EQ(error_for([](MachineConfig& c) {
              c.rob_entries = 65536;
              c.wpred.entries = c.bpred.entries = 1u << 20;
              c.mem.ul1.size_bytes = 1u << 26;
            }),
            "");
}

TEST(MachineConfig, PipelineRefusesAnUnrunnableConfig) {
  const Trace t = generate_trace(spec_profile("gcc"), 100);
  MachineConfig cfg = helper_machine(steering_ir());
  cfg.copy_ports = 0;
  EXPECT_DEATH({ Pipeline p(cfg, t.program); },
               "unrunnable machine config: copy_ports must be in 1..255");
}

}  // namespace
}  // namespace hcsim
