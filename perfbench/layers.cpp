// Per-layer replay: the components inlined into Pipeline::feed_record have
// no call boundary to put a span on, so each one is timed by feeding the
// workload's own gcc and mcf traces through the component class alone.
//
// Proxy inputs (stated, deterministic): cycle and tick arguments come from
// the record index (memory accesses at cycle i/2, ClusterEpoch dispatches
// at tick i with a template-latency source delay plus a miss-sized delay
// every 16th record, Mob stores retiring 128 records behind), and the IR
// trigger's queue occupancies are (7i mod 33, 5i mod 33). The replay error
// against the real interleaving lands in core.glue_ns_per_uop.
#include <algorithm>
#include <bit>
#include <optional>

#include "bbcache/bb_cache.hpp"
#include "core/cluster_epoch.hpp"
#include "core/pipeline.hpp"
#include "perf.hpp"
#include "predict/branch_predictor.hpp"
#include "predict/width_predictor.hpp"
#include "sample/spec.hpp"
#include "sim/simulator.hpp"
#include "steer/steering.hpp"
#include "wload/profile.hpp"

using namespace hcsim;

namespace perf {

namespace {

/// Longest prefix of a workload trace the replays use.
constexpr u64 kReplayLen = 500000;

struct Costs {
  double classify_ns = 0, lookup_ns = 0, width_ns = 0, epoch_ns = 0;  // per µop
  double fill_ns = 0;     // per template
  double hit_ratio = 0;   // cold decode cache, per window
  double decide_ns = 0, calls_per_uop = 0;
  double branch_ns = 0, branches_per_uop = 0;
  double mem_ns = 0, accesses_per_uop = 0;
  double mob_ns = 0, memops_per_uop = 0;
  double pipe_base_ns = 0, pipe_helper_ns = 0;  // Pipeline::feed(span), per µop
  double setup_us = 0;                          // Pipeline constructor + finish
};

Costs measure(const Trace& trace, const Options& o) {
  const MachineConfig base = monolithic_baseline();
  const MachineConfig helper = helper_machine(steering_ir());
  const std::span<const TraceRecord> recs(trace.records);
  const std::size_t n = recs.size();
  const double dn = static_cast<double>(n);
  Costs c;
  u64 sink = 0;

  // Width classification, and the lanes every later replay reads.
  std::vector<u8> lanes(n);
  WidthLaneBlock block;
  c.classify_ns = 1e9 / dn * median_seconds([&] {
    for (std::size_t i = 0; i < n; i += WidthLaneBlock::kRecords) {
      const std::size_t m = std::min(WidthLaneBlock::kRecords, n - i);
      block.classify(recs.subspan(i, m), helper.helper_width_bits);
      sink += block.lanes[0];
    }
  });
  for (std::size_t i = 0; i < n; i += WidthLaneBlock::kRecords) {
    const std::size_t m = std::min(WidthLaneBlock::kRecords, n - i);
    block.classify(recs.subspan(i, m), helper.helper_width_bits);
    std::copy_n(block.lanes.begin(), m, lanes.begin() + static_cast<std::ptrdiff_t>(i));
  }

  // Decode cache: cold fills (a fresh cache per sampling window, or one per
  // full run), then warm lookups.
  std::vector<sample::WindowRange> windows;
  if (o.sample.enabled()) windows = sample::plan_windows(o.sample, n);
  if (windows.empty()) windows.push_back(sample::WindowRange{0, 0, 0, n});
  u64 lookups = 0, fills = 0;
  double fill_s = 0.0;
  for (const sample::WindowRange& w : windows) {
    DecodeCache cold(true);
    cold.bind(trace.program, base.steer, base.helper_width_bits);
    for (u64 i = w.begin; i < std::min<u64>(w.end(), n); ++i) {
      ++lookups;
      if (cold.try_get(recs[i].pc)) continue;
      const Clock::time_point t0 = Clock::now();
      sink += cold.fill(recs[i].pc).n_srcs;
      fill_s += seconds_since(t0);
      ++fills;
    }
  }
  c.fill_ns = fills ? fill_s * 1e9 / static_cast<double>(fills) : 0.0;
  c.hit_ratio = lookups ? 1.0 - static_cast<double>(fills) / static_cast<double>(lookups) : 0.0;

  DecodeCache warm(true), ir(true);
  warm.bind(trace.program, base.steer, base.helper_width_bits);
  ir.bind(trace.program, helper.steer, helper.helper_width_bits);
  std::vector<const UopTemplate*> tmpl(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (!warm.try_get(recs[i].pc)) warm.fill(recs[i].pc);
    tmpl[i] = ir.try_get(recs[i].pc);
    if (!tmpl[i]) tmpl[i] = &ir.fill(recs[i].pc);
  }
  c.lookup_ns = 1e9 / dn * median_seconds([&] {
    for (const TraceRecord& r : recs) sink += warm.try_get(r.pc)->n_srcs;
  });

  // Steering: a context per µop the ladder does not statically send wide.
  {
    WidthPredictor wp;
    std::vector<SteerContext> ctxs;
    for (std::size_t i = 0; i < n; ++i) {
      const UopTemplate& t = *tmpl[i];
      if (t.static_wide) continue;
      const u32 pc = recs[i].pc;
      const u8 src = lanes[i] & t.width_lane_mask;
      const WidthPredictor::Prediction pr = wp.predict_result(pc);
      const WidthPredictor::Prediction cp = wp.predict_carry(pc);
      SteerContext x;
      x.uop = t.uop;
      x.helper_capable = t.helper_capable;
      x.all_srcs_narrow = src == t.width_lane_mask && t.imm_narrow;
      x.result_pred_narrow = pr.narrow;
      x.result_confident = pr.confident;
      x.cr_shape = t.cr_op && std::popcount(static_cast<unsigned>(t.width_lane_mask & ~src)) == 1 &&
                   !pr.narrow;
      x.carry_pred_confined = cp.narrow;
      x.carry_confident = cp.confident;
      x.flags_producer_in_helper = t.reads_flags && (i & 1);
      x.frontend_resolvable = t.is_branch_cond;
      x.iq_occ_wide = static_cast<unsigned>((i * 7) % 33);
      x.iq_occ_helper = static_cast<unsigned>((i * 5) % 33);
      x.iq_size_wide = helper.iq_wide;
      x.iq_size_helper = helper.iq_helper;
      if (t.tracked) wp.train_result(pc, (lanes[i] >> WidthLaneBlock::kResultBit) & 1u);
      ctxs.push_back(x);
    }
    const SteeringPolicy policy(helper.steer);
    c.calls_per_uop = static_cast<double>(ctxs.size()) / dn;
    if (!ctxs.empty())
      c.decide_ns = 1e9 / static_cast<double>(ctxs.size()) * median_seconds([&] {
        for (const SteerContext& x : ctxs) sink += static_cast<u64>(policy.decide(x));
      });
  }

  // Predictors.
  c.width_ns = 1e9 / dn * median_seconds([&] {
    WidthPredictor wp;
    for (std::size_t i = 0; i < n; ++i) {
      if (!tmpl[i]->tracked) continue;
      sink += wp.predict_result(recs[i].pc).narrow;
      wp.train_result(recs[i].pc, (lanes[i] >> WidthLaneBlock::kResultBit) & 1u);
    }
  });
  u64 branches = 0, memops = 0;
  for (std::size_t i = 0; i < n; ++i) {
    branches += tmpl[i]->is_branch_cond;
    memops += tmpl[i]->is_mem;
  }
  c.branches_per_uop = static_cast<double>(branches) / dn;
  c.memops_per_uop = c.accesses_per_uop = static_cast<double>(memops) / dn;
  if (branches)
    c.branch_ns = 1e9 / static_cast<double>(branches) * median_seconds([&] {
      BranchPredictor bp;
      for (std::size_t i = 0; i < n; ++i) {
        if (!tmpl[i]->is_branch_cond) continue;
        sink += bp.predict(recs[i].pc);
        bp.update(recs[i].pc, recs[i].taken);
      }
    });

  // Memory system and MOB.
  if (memops) {
    std::vector<double> v;
    for (int r = 0; r < 5; ++r) {
      MemorySystem ms(base.mem);
      const Clock::time_point t0 = Clock::now();
      for (std::size_t i = 0; i < n; ++i)
        if (tmpl[i]->is_mem) sink += ms.access(i / 2, recs[i].mem_addr, tmpl[i]->is_store_op);
      v.push_back(seconds_since(t0));
    }
    c.mem_ns = 1e9 / static_cast<double>(memops) * median(v);
    c.mob_ns = 1e9 / static_cast<double>(memops) * median_seconds([&] {
      Mob mob;
      for (std::size_t i = 0; i < n; ++i) {
        if (tmpl[i]->is_store_op) mob.add_store(i, recs[i].mem_addr, i / 2 + 4);
        else if (tmpl[i]->is_mem) sink += mob.check_load(i, recs[i].mem_addr).ready_cycle;
        if ((i & 31) == 0 && i > 128) mob.store_retired(i - 128);
      }
    });
  }

  // The wide cluster's resource engine.
  c.epoch_ns = 1e9 / dn * median_seconds([&] {
    ClusterEpoch e;
    e.init(base.issue_wide, base.iq_wide, base.copy_ports, base.ticks_per_wide_cycle);
    for (std::size_t i = 0; i < n; ++i) {
      const Tick from = i;
      const Tick delay = (tmpl[i]->n_srcs ? 2u * tmpl[i]->latency_wide : 0u) +
                         ((i & 15) == 0 ? 26u : 0u);
      sink += e.dispatch(from, from + delay).issue;
    }
  });

  // Whole pipeline, feed only, on the monolithic and helper+IR machines.
  const auto pipe_ns = [&](const MachineConfig& cfg) {
    std::vector<double> v;
    for (int r = 0; r < 3; ++r) {
      Pipeline p(cfg, trace.program);
      const Clock::time_point t0 = Clock::now();
      p.feed(recs);
      v.push_back(seconds_since(t0));
      sink += p.finish().final_tick;
    }
    return median(v) * 1e9 / dn;
  };
  c.pipe_base_ns = pipe_ns(base);
  c.pipe_helper_ns = pipe_ns(helper);

  std::vector<double> setup;
  for (int r = 0; r < 20; ++r)
    for (const MachineConfig* cfg : {&base, &helper}) {
      const Clock::time_point t0 = Clock::now();
      std::optional<Pipeline> p;
      p.emplace(*cfg, trace.program);
      sink += p->finish().uops;
      setup.push_back(seconds_since(t0) * 1e6);
    }
  c.setup_us = median(setup);

  g_sink = sink;
  return c;
}

}  // namespace

void replay_layers(const Options& o, Layers& out) {
  const u64 n = std::min(o.len, kReplayLen);
  WorkloadProfile gcc = spec_profile("gcc"), mcf = spec_profile("mcf");
  gcc.seed = mcf.seed = o.seed + 1;  // the grid's seed
  const Costs g = measure(cached_trace(gcc, n), o);
  const Costs m = measure(cached_trace(mcf, n), o);

  out.emplace_back("trace.classify_ns_per_uop", g.classify_ns);
  out.emplace_back("bbcache.lookup_ns_per_uop", g.lookup_ns);
  out.emplace_back("bbcache.fill_ns_per_template", g.fill_ns);
  out.emplace_back("bbcache.hit_ratio", g.hit_ratio);
  out.emplace_back("steer.decide_ns_per_call", g.decide_ns);
  out.emplace_back("steer.calls_per_uop", g.calls_per_uop);
  out.emplace_back("predict.width_ns_per_uop", g.width_ns);
  out.emplace_back("predict.branch_ns_per_branch", g.branch_ns);
  out.emplace_back("mem.access_ns_per_access", m.mem_ns);
  out.emplace_back("mem.mob_ns_per_op", m.mob_ns);
  out.emplace_back("core.epoch_dispatch_ns", g.epoch_ns);
  out.emplace_back("core.pipeline_ns_per_uop.baseline", g.pipe_base_ns);
  out.emplace_back("core.pipeline_ns_per_uop.helper", g.pipe_helper_ns);
  out.emplace_back("core.helper_gap", g.pipe_base_ns > 0 ? g.pipe_helper_ns / g.pipe_base_ns : 0);
  out.emplace_back("core.setup_us", g.setup_us);
  // What the baseline machine's replayed components do not account for.
  const double components = g.classify_ns + g.lookup_ns + g.width_ns + g.epoch_ns +
                            g.branch_ns * g.branches_per_uop +
                            (g.mem_ns + g.mob_ns) * g.accesses_per_uop;
  out.emplace_back("core.glue_ns_per_uop", g.pipe_base_ns - components);
}

}  // namespace perf
