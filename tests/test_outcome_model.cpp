// The shared outcome model (core/outcome_model.hpp): a pipeline that walks
// outcome bytes from a model shared per outcome key gives the result of its
// private feed, and the key names every config field that moves an outcome.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
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
#include "sim/trace_cache.hpp"
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

/// `cfg`'s outcome bytes over `trace`, written in spans.
std::vector<u8> outcomes_of(const MachineConfig& cfg, const Trace& trace) {
  std::vector<u8> out(trace.records.size());
  OutcomeModel model(cfg, trace.program);
  in_spans(out.size(), [&](std::size_t at, std::size_t n) {
    model.run(std::span<const TraceRecord>(trace.records).subspan(at, n),
              std::span<u8>(out).subspan(at, n));
  });
  return out;
}

SimResult private_run(const MachineConfig& cfg, const Trace& trace) {
  Pipeline p(cfg, trace.program);
  in_spans(trace.records.size(), [&](std::size_t at, std::size_t n) {
    p.feed(std::span<const TraceRecord>(trace.records).subspan(at, n));
  });
  return p.finish();
}

SimResult shared_run(const MachineConfig& cfg, const Trace& trace,
                     const std::vector<u8>& outcomes) {
  Pipeline p(cfg, trace.program);
  in_spans(trace.records.size(), [&](std::size_t at, std::size_t n) {
    p.feed(std::span<const TraceRecord>(trace.records).subspan(at, n),
           std::span<const u8>(outcomes).subspan(at, n));
  });
  return p.finish();
}

u64 hits(double rate, u64 accesses) {
  return static_cast<u64>(std::llround(rate * static_cast<double>(accesses)));
}

TEST(Outcomes, SharedMatchesPrivate) {
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

    std::vector<std::vector<u8>> shared;  // one per outcome key
    for (std::size_t k = 0; k < cfgs.size(); ++k) {
      if (classes[k] == shared.size()) shared.push_back(outcomes_of(cfgs[k], *trace));
      const SimResult own = private_run(cfgs[k], *trace);
      EXPECT_EQ(result_difference(own, shared_run(cfgs[k], *trace, shared[classes[k]])), "")
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
    const std::vector<u8> base_outcomes = outcomes_of(base, *trace);
    std::size_t moved = 0;  // mutations whose borrowed outcomes change the result
    for (const auto& [field, mutate] : mutations) {
      MachineConfig changed = base;
      mutate(changed);
      ASSERT_EQ(machine_config_error(changed), "") << field;
      const std::string diff =
          result_difference(private_run(changed, *trace), shared_run(changed, *trace, base_outcomes));
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
