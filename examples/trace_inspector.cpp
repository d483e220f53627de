// hcsim example: deep-dive inspector for one workload.
//
// Usage: trace_inspector [app] [scheme]
//   app    — a SPEC Int 2000 name (default gcc)
//   scheme — one of: 888 br lr cr cp ir irn (default ir)
//
// Prints the workload's width character (Figure 1/11/13 statistics), then
// simulates baseline + the chosen scheme and dumps the full pipeline
// statistics: steering mix, copies by direction, predictor behaviour,
// imbalance, cache behaviour.
#include <cstdio>
#include <cstring>
#include <string>

#include "analysis/trace_stats.hpp"
#include "power/power_model.hpp"
#include "sim/simulator.hpp"

using namespace hcsim;

static SteeringConfig scheme_by_name(const std::string& s) {
  if (s == "888") return steering_888();
  if (s == "br") return steering_888_br();
  if (s == "lr") return steering_888_br_lr();
  if (s == "cr") return steering_888_br_lr_cr();
  if (s == "cp") return steering_cp();
  if (s == "irn") return steering_ir_nodest();
  return steering_ir();
}

int main(int argc, char** argv) {
  const std::string app = argc > 1 ? argv[1] : "gcc";
  const std::string scheme = argc > 2 ? argv[2] : "ir";
  const WorkloadProfile& prof = spec_profile(app);
  const SteeringConfig steer = scheme_by_name(scheme);

  const TraceHandle held = acquire_trace(prof, default_trace_len());
  const Trace& trace = *held;
  const NarrowDependencyStats nd = narrow_dependency_stats(trace);
  const CarryStats cs = carry_stats(trace);
  const DistanceStats ds = producer_consumer_distance(trace);

  std::printf("== workload character: %s (%zu uops, %zu static) ==\n", app.c_str(),
              trace.records.size(), trace.program.uops.size());
  std::printf("narrow-dependent operands : %.1f%%\n", nd.operands_narrow_dependent.percent());
  std::printf("ALU 1-narrow / 2n->wide / 2n->narrow : %.1f%% / %.1f%% / %.1f%%\n",
              nd.alu_one_narrow.percent(), nd.alu_two_narrow_wide_result.percent(),
              nd.alu_two_narrow_narrow_result.percent());
  std::printf("carry confined (load/arith) : %.1f%% / %.1f%%\n",
              cs.load_confined.percent(), cs.arith_confined.percent());
  std::printf("producer-consumer distance  : %.2f uops\n", ds.mean());

  const SimResult b = simulate(monolithic_baseline(), trace);
  const SimResult h = simulate(helper_machine(steer), trace);
  std::printf("\n== %s vs baseline ==\n", h.config.c_str());
  std::printf("IPC                  : %.3f -> %.3f  (%+.1f%%)\n", b.ipc, h.ipc,
              (h.speedup_vs(b) - 1.0) * 100.0);
  std::printf("baseline bpred acc   : %.1f%%  dl0 %.1f%%  ul1 %.1f%%\n",
              100.0 * (1.0 - static_cast<double>(b.branch_mispredicts) /
                                 static_cast<double>(b.branches ? b.branches : 1)),
              100.0 * b.dl0_hit_rate, 100.0 * b.ul1_hit_rate);
  std::printf("steered to helper    : %.1f%% (BR %llu, CR %llu, splits %llu)\n",
              100.0 * h.helper_frac(), (unsigned long long)h.br_steered,
              (unsigned long long)h.cr_steered, (unsigned long long)h.split_uops);
  std::printf("copies               : %.1f%%  (w2n %llu, n2w %llu, prefetch %llu)\n",
              100.0 * h.copy_frac(), (unsigned long long)h.copies_w2n,
              (unsigned long long)h.copies_n2w, (unsigned long long)h.copy_prefetches);
  std::printf("copy wait mean       : %.1f ticks (p50 %llu p90 %llu p99 %llu, >63: %.1f%%)\n",
              h.copy_wait.mean(), (unsigned long long)h.copy_wait.quantile(0.5),
              (unsigned long long)h.copy_wait.quantile(0.9),
              (unsigned long long)h.copy_wait.quantile(0.99),
              100.0 * (1.0 - h.copy_wait.fraction_at_most(63)));
  std::printf("LR replicas          : %llu\n", (unsigned long long)h.replicated_loads);
  std::printf("width pred           : correct %.2f%%  nonfatal %.2f%%  fatal %.2f%%\n",
              100.0 * h.wp_accuracy(),
              100.0 * static_cast<double>(h.wp_nonfatal) /
                  static_cast<double>(h.wp_correct + h.wp_nonfatal + h.wp_fatal),
              100.0 * h.fatal_rate());
  std::printf("CR violations        : %llu\n", (unsigned long long)h.cr_violations);
  std::printf("CP useful/wasted     : %llu / %llu\n", (unsigned long long)h.cp_useful,
              (unsigned long long)h.cp_wasted);
  std::printf("NREADY w2n / n2w     : %.1f%% / %.1f%%\n", h.nready_w2n_pct(),
              h.nready_n2w_pct());
  std::printf("issues wide/helper/fp: %llu / %llu / %llu\n",
              (unsigned long long)h.counters.get("issue_wide"),
              (unsigned long long)h.counters.get("issue_helper"),
              (unsigned long long)h.counters.get("issue_fp"));
  std::printf("flush refills        : %llu\n",
              (unsigned long long)h.counters.get("flush_refills"));
  std::printf("mob forwards         : %llu\n",
              (unsigned long long)h.counters.get("mob_forwards"));

  const PowerReport pb = analyze_power(b, monolithic_baseline());
  const PowerReport ph = analyze_power(h, helper_machine(steer));
  std::printf("energy base/helper   : %.0f / %.0f  (ED2 ratio %.3f)\n", pb.energy,
              ph.energy, pb.ed2p / ph.ed2p);
  return 0;
}
