// The shared outcome model (core/outcome_model.hpp): a pipeline that walks
// outcomes from a model shared per outcome key and their jump list gives
// the result of its private feed, the jump list and jump bits give back
// every record's pc, a walk aborts on a jump list that does not match, the
// outcome's match bits are the CR carry check, and the key names every
// config field that moves an outcome.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/outcome_model.hpp"
#include "core/pipeline.hpp"
#include "exp/sweep.hpp"
#include "expect_result.hpp"
#include "isa/opcode.hpp"
#include "rv/kernels.hpp"
#include "sample/outcome_pass.hpp"
#include "sample/spec.hpp"
#include "sim/simulator.hpp"
#include "sim/trace_cache.hpp"
#include "util/narrow.hpp"
#include "wload/profile.hpp"

namespace hcsim {
namespace {

constexpr u64 kLen = 20000;

/// Every config of the cumulative, fig06, edp, helper_design, fig05,
/// predictor_size and ir_block sweeps, baselines included. helper_design's
/// widths 4 and 16 give it three outcome keys; fig05's machine without the
/// confidence estimator and predictor_size's four table sizes other than
/// 256 give five more.
std::vector<MachineConfig> sweep_configs() {
  std::vector<MachineConfig> cfgs;
  for (const char* name : {"cumulative", "fig06", "edp", "helper_design", "fig05",
                           "predictor_size", "ir_block"}) {
    const std::optional<exp::SweepSpec> spec = exp::find_sweep(name);
    cfgs.push_back(spec->baseline);
    for (const exp::ConfigVariant& v : spec->variants) cfgs.push_back(v.machine);
  }
  return cfgs;
}

/// Call feed(at, n) over [0, size) in spans of 1, 1023, 1025 and the rest,
/// so span ends fall inside, just short of and just past a 1024-record
/// outcome block.
void in_spans(std::size_t size, const std::function<void(std::size_t, std::size_t)>& feed) {
  std::size_t at = 0;
  for (std::size_t n : {std::size_t{1}, std::size_t{1023}, std::size_t{1025}, size}) {
    n = std::min(n, size - at);
    feed(at, n);
    at += n;
  }
}

/// A walk's input: outcomes with their jump bits, and the jumps' pcs.
struct Walk {
  std::vector<u16> outcomes;
  std::vector<u32> jumps;
};

/// `cfg`'s outcomes over `trace` and their jumps, both written in spans.
Walk outcomes_of(const MachineConfig& cfg, const Trace& trace) {
  Walk w;
  w.outcomes.resize(trace.records.size());
  OutcomeModel model(cfg, trace.program);
  u64 next_pc = kWalkStart;
  in_spans(w.outcomes.size(), [&](std::size_t at, std::size_t n) {
    const std::span<const TraceRecord> recs =
        std::span<const TraceRecord>(trace.records).subspan(at, n);
    const std::span<u16> out = std::span<u16>(w.outcomes).subspan(at, n);
    model.run(recs, out);
    next_pc = mark_jumps(recs, next_pc, out, w.jumps);
  });
  return w;
}

std::size_t count_jumps(std::span<const u16> outcomes) {
  return static_cast<std::size_t>(std::count_if(outcomes.begin(), outcomes.end(),
                                                [](u16 o) { return Outcome::jump(o); }));
}

/// The pc of every record of `outcomes`, as a walk reads it back from the
/// jump bits and `jumps`, appended to `pcs`. `pc` is the pc before the
/// first record; a poisoned one shows when that record is not a jump.
/// Returns the last record's pc, or nothing when the jump bits and `jumps`
/// do not pair up.
std::optional<u32> rebuild_pcs(std::span<const u16> outcomes, std::span<const u32> jumps,
                               u32 pc, std::vector<u32>& pcs) {
  std::size_t j = 0;
  for (const u16 o : outcomes) {
    if (Outcome::jump(o)) {
      if (j == jumps.size()) return std::nullopt;
      pc = jumps[j++];
    } else {
      ++pc;
    }
    pcs.push_back(pc);
  }
  if (j != jumps.size()) return std::nullopt;
  return pc;
}

SimResult private_run(const MachineConfig& cfg, const Trace& trace) {
  Pipeline p(cfg, trace.program);
  in_spans(trace.records.size(), [&](std::size_t at, std::size_t n) {
    p.feed(std::span<const TraceRecord>(trace.records).subspan(at, n));
  });
  return p.finish();
}

/// `cfg`'s timing walk over `outcomes` and `jumps`, fed in spans, each
/// with the jumps its jump bits name.
SimResult walk_run(const MachineConfig& cfg, const Program& program,
                   std::span<const u16> outcomes, std::span<const u32> jumps) {
  Pipeline p(cfg, program);
  std::size_t j = 0;
  in_spans(outcomes.size(), [&](std::size_t at, std::size_t n) {
    const std::span<const u16> span = outcomes.subspan(at, n);
    const std::size_t n_jumps = count_jumps(span);
    p.feed(span, jumps.subspan(j, n_jumps));
    j += n_jumps;
  });
  return p.finish();
}

u64 hits(double rate, u64 accesses) {
  return static_cast<u64>(std::llround(rate * static_cast<double>(accesses)));
}

TEST(Outcomes, SharedMatchesPrivate) {
  // One cell of every config below per workload, its outcomes streamed from
  // the generator or the RV executor as an unsampled cached sweep cell
  // streams them: eight keys, helper_design's three among them.
  const std::vector<MachineConfig> cfgs = sweep_configs();
  const std::vector<std::size_t> classes = outcome_classes(cfgs);
  EXPECT_EQ(*std::max_element(classes.begin(), classes.end()), 7u);

  std::vector<WorkloadProfile> workloads = spec_int_2000_profiles();
  const std::vector<WorkloadProfile> rv = rv::rv_workload_profiles();
  workloads.insert(workloads.end(), rv.begin(), rv.begin() + 2);
  for (const WorkloadProfile& prof : workloads) {
    const TraceHandle trace = acquire_trace(prof, kLen);
    // Each memory µop probing the tags once, in program order: a flushed
    // µop's second access must hit DL0, so a pipeline's DL0 misses and UL1
    // traffic come out the same.
    Cache dl0(cfgs.front().mem.dl0), ul1(cfgs.front().mem.ul1);
    for (const TraceRecord& r : trace->records)
      if (is_memory(trace->program.uops[r.pc].opcode)) probe_hierarchy(dl0, ul1, r.mem_addr);
    const u64 dl0_misses = dl0.accesses() - dl0.hit_ratio().num;

    const sample::OutcomeTrace cell =
        sample::outcome_trace(cfgs, *sample::open_generating_stream(prof, kLen), kLen);
    ASSERT_EQ(cell.outcomes.size(), 8u) << prof.name;
    for (std::size_t k = 0; k < cfgs.size(); ++k) {
      EXPECT_EQ(cell.key_of[k], classes[k]);
      ASSERT_EQ(cell[k].size(), trace->records.size()) << prof.name;
      const SimResult own = simulate(cfgs[k], *trace);
      EXPECT_EQ(result_difference(own, walk_run(cfgs[k], cell.program, cell[k], cell.jumps)), "")
          << prof.name << " config " << k << " (" << cfgs[k].steer.describe() << ")";

      const u64 dl0_accesses = own.counters.get(Counter::kDl0Accesses);
      const u64 ul1_accesses = own.counters.get(Counter::kUl1Accesses);
      EXPECT_EQ(dl0_accesses - hits(own.dl0_hit_rate, dl0_accesses), dl0_misses)
          << prof.name << " config " << k;
      EXPECT_EQ(ul1_accesses, ul1.accesses()) << prof.name << " config " << k;
      EXPECT_EQ(hits(own.ul1_hit_rate, ul1_accesses), ul1.hit_ratio().num)
          << prof.name << " config " << k;
    }
  }
}

TEST(Outcomes, JumpsRebuildEveryPc) {
  // Every record's pc, read back from the jump bits and the jump list as a
  // walk reads it, is the generator's: from a held cell (outcome_trace) and
  // from each pull of a sampled pass, whose first record must be a jump
  // (rebuild_pcs starts each pull from a poisoned pc).
  constexpr u32 kPoison = 0xdead0000u;
  sample::SampleSpec spec;
  spec.warmup = 1000;
  spec.measure = 2000;
  spec.period = 5000;
  const std::vector<sample::WindowRange> plan = sample::plan_windows(spec, kLen);
  ASSERT_EQ(plan.size(), 4u);
  // Two outcome keys: each key's outcomes carry the jump bits.
  std::vector<MachineConfig> cfgs(2, helper_machine(steering_ir()));
  cfgs[1].helper_width_bits = 16;

  std::vector<WorkloadProfile> workloads = spec_int_2000_profiles();
  const std::vector<WorkloadProfile> rv = rv::rv_workload_profiles();
  ASSERT_EQ(rv.size(), 8u);
  workloads.insert(workloads.end(), rv.begin(), rv.end());
  for (const WorkloadProfile& prof : workloads) {
    const TraceHandle trace = acquire_trace(prof, kLen);
    std::vector<u32> want;
    for (const TraceRecord& r : trace->records) want.push_back(r.pc);

    const sample::OutcomeTrace cell =
        sample::outcome_trace(cfgs, *sample::open_generating_stream(prof, kLen), kLen);
    ASSERT_EQ(cell.outcomes.size(), 2u);
    EXPECT_LT(cell.jumps.size(), want.size()) << prof.name;
    for (std::size_t k = 0; k < cfgs.size(); ++k) {
      std::vector<u32> pcs;
      ASSERT_TRUE(rebuild_pcs(cell[k], cell.jumps, kPoison, pcs)) << prof.name;
      EXPECT_EQ(pcs, want) << prof.name << " config " << k;
    }

    const std::unique_ptr<sample::RecordStream> stream =
        sample::open_generating_stream(prof, kLen);
    sample::OutcomePass pass(cfgs, stream->program());
    for (const sample::WindowRange& w : plan)
      for (const auto& [begin, end] : {std::pair{w.begin, w.measure_begin()},
                                       std::pair{w.measure_begin(), w.end()}}) {
        std::vector<u32> got;
        u32 pc = kPoison;
        bool paired = true;
        pass.pull(*stream, begin, end, [&] {
          const std::optional<u32> last = rebuild_pcs(pass.outcomes(1), pass.jumps(), pc, got);
          paired = paired && last.has_value();
          pc = last.value_or(kPoison);
          EXPECT_TRUE(std::equal(pass.outcomes(0).begin(), pass.outcomes(0).end(),
                                 pass.outcomes(1).begin(), [](u16 a, u16 b) {
                                   return Outcome::jump(a) == Outcome::jump(b);
                                 }))
              << prof.name;
        });
        EXPECT_TRUE(paired) << prof.name << " records " << begin << "-" << end;
        EXPECT_TRUE(std::equal(got.begin(), got.end(), want.begin() + begin, want.begin() + end))
            << prof.name << " records " << begin << "-" << end;
      }
  }
}

/// `cfg`'s walk over `w`, whole.
SimResult walk_whole(const MachineConfig& cfg, const Program& program, const Walk& w) {
  Pipeline p(cfg, program);
  p.feed(w.outcomes, w.jumps);
  return p.finish();
}

TEST(OutcomesDeathTest, WalkAbortsOnJumpsThatDoNotPair) {
  const MachineConfig cfg = helper_machine(steering_ir());
  const TraceHandle trace = acquire_trace(spec_profile("gcc"), 4000);
  const Walk good = outcomes_of(cfg, *trace);
  ASSERT_TRUE(Outcome::jump(good.outcomes.front()));
  EXPECT_EQ(result_difference(walk_whole(cfg, trace->program, good), simulate(cfg, *trace)), "");

  // A jump bit on the last record that has none: every record after it is
  // a jump, so the walk runs out of jumps before it computes another pc.
  Walk extra_bit = good;
  const auto last_run = std::find_if(extra_bit.outcomes.rbegin(), extra_bit.outcomes.rend(),
                                     [](u16 o) { return !Outcome::jump(o); });
  ASSERT_NE(last_run, extra_bit.outcomes.rend());
  *last_run |= Outcome::kJump;
  EXPECT_DEATH((void)walk_whole(cfg, trace->program, extra_bit), "a jump bit without its jump");

  Walk extra_jump = good;
  extra_jump.jumps.push_back(0);
  EXPECT_DEATH((void)walk_whole(cfg, trace->program, extra_jump),
               "a jump without its jump bit");

  Walk no_start = good;  // the same records, walked as if from a pc before
  no_start.outcomes.front() &= static_cast<u16>(~Outcome::kJump);
  no_start.jumps.erase(no_start.jumps.begin());
  EXPECT_DEATH((void)walk_whole(cfg, trace->program, no_start), "must start at a jump");

  Walk outside = good;
  outside.jumps.back() = static_cast<u32>(trace->program.uops.size());
  EXPECT_DEATH((void)walk_whole(cfg, trace->program, outside), "pc outside the program");
}

TEST(Outcomes, MatchBitsAreTheCarryCheck) {
  // Bits 8-11 of the outcome of every record whose opcode CR may steer
  // (the only records whose walk reads them): operand slot k's value, and
  // the immediate, agree with the µop's output (its address for a memory
  // µop) above the helper width, as the CR carry check tests it.
  for (const WorkloadProfile& prof :
       {spec_profile("gcc"), spec_profile("mcf"), rv::rv_workload_profile("crc32")}) {
    const TraceHandle trace = acquire_trace(prof, kLen);
    for (const unsigned width : {8u, 16u}) {
      MachineConfig cfg = helper_machine(steering_ir());
      cfg.helper_width_bits = width;
      const std::vector<u16> outcomes = outcomes_of(cfg, *trace).outcomes;
      std::size_t checked = 0, mismatches = 0;
      for (std::size_t i = 0; i < trace->records.size(); ++i) {
        const TraceRecord& r = trace->records[i];
        const StaticUop& su = trace->program.uops[r.pc];
        if (!build_uop_template(su, cfg.steer, width).cr_op) continue;
        ++checked;
        const u32 output = is_memory(su.opcode) ? r.mem_addr : r.result;
        for (unsigned k = 0; k < kMaxSrcs; ++k)
          mismatches += Outcome::upper_match(outcomes[i], k) !=
                        upper_bits_match(r.src_vals[k], output, width);
        mismatches += Outcome::upper_match(outcomes[i], Outcome::kImmSlot) !=
                      upper_bits_match(su.imm, output, width);
      }
      EXPECT_EQ(mismatches, 0u) << prof.name << " at width " << width;
      EXPECT_GT(checked, trace->records.size() / 10) << prof.name;
    }
  }
}

TEST(Outcomes, KeyCoversEveryFieldTheModelReads) {
  using Mutation = std::pair<const char*, std::function<void(MachineConfig&)>>;
  const std::vector<Mutation> mutations = {
      {"fetch_width", [](MachineConfig& c) { c.fetch_width = 3; }},
      {"rename_width", [](MachineConfig& c) { c.rename_width = 3; }},
      {"commit_width", [](MachineConfig& c) { c.commit_width = 3; }},
      {"rob_entries", [](MachineConfig& c) { c.rob_entries = 32; }},
      {"frontend_depth", [](MachineConfig& c) { c.frontend_depth = 3; }},
      {"iq_wide", [](MachineConfig& c) { c.iq_wide = 8; }},
      {"issue_wide", [](MachineConfig& c) { c.issue_wide = 1; }},
      {"iq_fp", [](MachineConfig& c) { c.iq_fp = 4; }},
      {"issue_fp", [](MachineConfig& c) { c.issue_fp = 1; }},
      {"iq_helper", [](MachineConfig& c) { c.iq_helper = 8; }},
      {"issue_helper", [](MachineConfig& c) { c.issue_helper = 1; }},
      {"helper_width_bits", [](MachineConfig& c) { c.helper_width_bits = 16; }},
      {"ticks_per_wide_cycle", [](MachineConfig& c) { c.ticks_per_wide_cycle = 3; }},
      {"copy_transfer_cycles", [](MachineConfig& c) { c.copy_transfer_cycles = 4; }},
      {"copy_ports", [](MachineConfig& c) { c.copy_ports = 1; }},
      {"mem.dl0.size_bytes", [](MachineConfig& c) { c.mem.dl0.size_bytes = 2048; }},
      {"mem.dl0.line_bytes", [](MachineConfig& c) { c.mem.dl0.line_bytes = 16; }},
      {"mem.dl0.ways", [](MachineConfig& c) { c.mem.dl0.ways = 1; }},
      {"mem.dl0.latency_cycles", [](MachineConfig& c) { c.mem.dl0.latency_cycles = 9; }},
      {"mem.dl0.ports", [](MachineConfig& c) { c.mem.dl0.ports = 1; }},
      {"mem.ul1.size_bytes", [](MachineConfig& c) { c.mem.ul1.size_bytes = 16 * 1024; }},
      {"mem.ul1.line_bytes", [](MachineConfig& c) { c.mem.ul1.line_bytes = 16; }},
      {"mem.ul1.ways", [](MachineConfig& c) { c.mem.ul1.ways = 1; }},
      {"mem.ul1.latency_cycles", [](MachineConfig& c) { c.mem.ul1.latency_cycles = 40; }},
      {"mem.ul1.ports", [](MachineConfig& c) { c.mem.ul1.ports = 2; }},
      {"mem.main_memory_cycles", [](MachineConfig& c) { c.mem.main_memory_cycles = 100; }},
      {"wpred.entries", [](MachineConfig& c) { c.wpred.entries = 16; }},
      {"wpred.use_confidence", [](MachineConfig& c) { c.wpred.use_confidence = false; }},
      {"wpred.confidence_threshold", [](MachineConfig& c) { c.wpred.confidence_threshold = 1; }},
      {"bpred.entries", [](MachineConfig& c) { c.bpred.entries = 16; }},
      {"bpred.history_bits", [](MachineConfig& c) { c.bpred.history_bits = 2; }},
      {"steer.helper_enabled", [](MachineConfig& c) { c.steer.helper_enabled = false; }},
      {"steer.p888", [](MachineConfig& c) { c.steer.p888 = false; }},
      {"steer.br", [](MachineConfig& c) { c.steer.br = false; }},
      {"steer.lr", [](MachineConfig& c) { c.steer.lr = false; }},
      {"steer.cr", [](MachineConfig& c) { c.steer.cr = false; }},
      {"steer.cp", [](MachineConfig& c) { c.steer.cp = false; }},
      {"steer.ir", [](MachineConfig& c) { c.steer.ir = false; }},
      {"steer.ir_nodest_only", [](MachineConfig& c) { c.steer.ir_nodest_only = true; }},
      {"steer.ir_wide_occ_frac", [](MachineConfig& c) { c.steer.ir_wide_occ_frac = 0.1; }},
      {"steer.ir_helper_occ_frac", [](MachineConfig& c) { c.steer.ir_helper_occ_frac = 0.9; }},
      {"steer.balance_throttle", [](MachineConfig& c) { c.steer.balance_throttle = false; }},
      {"steer.helper_overload_frac",
       [](MachineConfig& c) { c.steer.helper_overload_frac = 0.2; }},
      {"steer.ir_block", [](MachineConfig& c) { c.steer.ir_block = true; }},
      {"steer.ir_block_len", [](MachineConfig& c) {
         c.steer.ir_block = true;
         c.steer.ir_block_len = 2;
       }},
  };
  // The top rung of the ladder reads every width, carry and copy rule.
  const MachineConfig base = helper_machine(steering_ir());
  for (const char* app : {"gcc", "mcf"}) {
    const TraceHandle trace = acquire_trace(spec_profile(app), kLen);
    const Walk base_walk = outcomes_of(base, *trace);
    std::size_t moved = 0;  // mutations whose borrowed outcomes change the result
    for (const auto& [field, mutate] : mutations) {
      MachineConfig changed = base;
      mutate(changed);
      ASSERT_EQ(machine_config_error(changed), "") << field;
      const std::string diff =
          result_difference(private_run(changed, *trace),
                            walk_run(changed, trace->program, base_walk.outcomes,
                                     base_walk.jumps));
      if (diff.empty()) continue;
      ++moved;
      EXPECT_FALSE(outcome_key(changed) == outcome_key(base))
          << app << ": " << field << " moves the outcomes (" << diff
          << ") but leaves the outcome key unchanged";
    }
    // The cache geometries, both predictors and the helper width all move
    // an outcome on these traces; far fewer would mean the test lost its
    // teeth.
    EXPECT_GE(moved, 6u) << app;
  }
}

}  // namespace
}  // namespace hcsim
