// End-to-end integration tests: the paper's qualitative claims must hold on
// generated workloads at reduced trace lengths.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "exp/runner.hpp"
#include "sim/simulator.hpp"

namespace hcsim {
namespace {

constexpr u64 kLen = 40000;

/// `name` sweep at `len` µops over `apps` (all of the sweep's own when
/// empty), on 4 threads.
exp::SweepResult sweep_at(const char* name, u64 len,
                          std::vector<WorkloadProfile> apps = {}) {
  exp::SweepSpec spec = *exp::find_sweep(name);
  spec.trace_lens = {len};
  if (!apps.empty()) spec.workloads = std::move(apps);
  exp::RunOptions opts;
  opts.threads = 4;
  return exp::run_sweep(spec, opts);
}

/// The cumulative ladder over the 12 SPEC apps at kLen, run once for every
/// test in this file.
const exp::SweepResult& cumulative() {
  static const exp::SweepResult kResult = sweep_at("cumulative", kLen);
  return kResult;
}

/// The cumulative point of `app` on `steer`.
const exp::PointResult& point(const std::string& app, const SteeringConfig& steer) {
  const std::string variant = steer.describe();
  for (const exp::PointResult& pr : cumulative().points)
    if (pr.point.profile.name == app && pr.point.variant.name == variant) return pr;
  ADD_FAILURE() << "no cumulative point " << app << " " << variant;
  return cumulative().points.front();
}

const std::vector<SteeringConfig>& all_schemes() {
  static const std::vector<SteeringConfig> kSchemes = {
      steering_888(),         steering_888_br(), steering_888_br_lr(),
      steering_888_br_lr_cr(), steering_cp(),    steering_ir(),
      steering_ir_nodest()};
  return kSchemes;
}

TEST(Integration, AllSchemesRunAllApps) {
  ASSERT_EQ(cumulative().points.size(),
            spec_int_2000_profiles().size() * all_schemes().size());
  for (const auto& prof : spec_int_2000_profiles())
    for (const SteeringConfig& steer : all_schemes()) {
      const SimResult& r = point(prof.name, steer).sim;
      EXPECT_EQ(r.uops, kLen) << prof.name << " " << r.config;
      EXPECT_EQ(r.config, steer.describe());
      EXPECT_GT(r.final_tick, 0u);
    }
}

TEST(Integration, SteeredFractionGrowsAcrossSchemes) {
  // Paper: 15% (8-8-8) -> 19.5% (BR) -> 47.5% (CR). Check monotone growth
  // for the stacking that adds steering rules.
  const double s888 = point("gcc", steering_888()).sim.helper_frac();
  const double sbr = point("gcc", steering_888_br()).sim.helper_frac();
  const double scr = point("gcc", steering_888_br_lr_cr()).sim.helper_frac();
  EXPECT_GT(sbr, s888);
  EXPECT_GT(scr, sbr);
}

TEST(Integration, BrAndLrReduceCopyFraction) {
  // Figures 8 and 9.
  int br_wins = 0, lr_wins = 0;
  for (const char* app : {"gcc", "gzip", "parser", "twolf"}) {
    const double c888 = point(app, steering_888()).sim.copy_frac();
    const double cbr = point(app, steering_888_br()).sim.copy_frac();
    const double clr = point(app, steering_888_br_lr()).sim.copy_frac();
    br_wins += cbr < c888;
    lr_wins += clr < cbr;
  }
  EXPECT_GE(br_wins, 3);
  EXPECT_GE(lr_wins, 3);
}

TEST(Integration, HelperClusterWinsOnAverage) {
  // The headline: the helper cluster speeds up SPEC Int (paper: +22% best
  // scheme). Demand a clearly positive geomean for the IR-family configs.
  std::vector<double> speedups;
  for (const auto& prof : spec_int_2000_profiles())
    speedups.push_back(point(prof.name, steering_ir_nodest()).speedup());
  EXPECT_GT(geomean(speedups), 1.05);
}

TEST(Integration, LaterSchemesBeatPlain888OnAverage) {
  std::vector<double> s888, scr;
  for (const auto& prof : spec_int_2000_profiles()) {
    s888.push_back(point(prof.name, steering_888()).speedup());
    scr.push_back(point(prof.name, steering_888_br_lr_cr()).speedup());
  }
  EXPECT_GT(geomean(scr), geomean(s888));
}

TEST(Integration, FatalMispredictionsStayRare) {
  // Paper: 0.83% of instructions with the confidence estimator.
  for (const char* app : {"gcc", "gzip", "perlbmk"})
    EXPECT_LT(point(app, steering_cp()).sim.fatal_rate(), 0.02) << app;
}

TEST(Integration, ConfidenceEstimatorCutsFatalMispredictions) {
  // Section 3.2: 2.11% -> 0.83% when adding the 2-bit confidence estimator
  // (the fig05 sweep: 8_8_8 with and without it).
  std::vector<WorkloadProfile> apps;
  for (const char* app : {"gcc", "gzip", "perlbmk", "twolf"})
    apps.push_back(spec_profile(app));
  double with_conf = 0, without_conf = 0;
  for (const exp::PointResult& pr : sweep_at("fig05", kLen, apps).points)
    (pr.point.variant.machine.wpred.use_confidence ? with_conf : without_conf) +=
        pr.sim.fatal_rate();
  EXPECT_LT(with_conf, without_conf);
}

TEST(Integration, WidthPredictionAccuracyHigh) {
  // Paper Figure 5: ~93.5% average correct predictions.
  for (const char* app : {"gcc", "twolf", "vpr"})
    EXPECT_GT(point(app, steering_888()).sim.wp_accuracy(), 0.85) << app;
}

TEST(Integration, ImbalanceShapeMatchesPaper) {
  // Section 3.7: before IR, wide-to-narrow imbalance dominates
  // narrow-to-wide by an order of magnitude.
  double w2n = 0, n2w = 0;
  for (const auto& prof : spec_int_2000_profiles()) {
    const SimResult& r = point(prof.name, steering_888_br_lr()).sim;
    w2n += r.nready_w2n_pct();
    n2w += r.nready_n2w_pct();
  }
  EXPECT_GT(w2n, 3.0 * n2w);
}

TEST(Integration, MemoryBoundAppGainsLeast) {
  // mcf is memory bound: its speedup must sit well below the suite's best.
  double mcf_gain = 0, best = 0;
  for (const auto& prof : spec_int_2000_profiles()) {
    const double g = point(prof.name, steering_ir()).perf_increase_pct();
    if (prof.name == "mcf") mcf_gain = g;
    best = std::max(best, g);
  }
  EXPECT_LT(mcf_gain, best / 2.0);
}

TEST(Integration, ScalesWithTraceLength) {
  // Results at 20k and 60k µops agree in direction (shape stability).
  for (u64 len : {u64{20000}, u64{60000}}) {
    const exp::SweepResult res = sweep_at("edp", len, {spec_profile("gcc")});  // +IR
    ASSERT_EQ(res.points.size(), 1u);
    EXPECT_EQ(res.points[0].sim.uops, len);
    EXPECT_GT(res.points[0].speedup(), 1.0) << len;
  }
}

TEST(Integration, CategoryAppsSimulateEndToEnd) {
  // One app from each Table 2 family.
  std::vector<WorkloadProfile> apps;
  for (const auto& cat : workload_categories())
    apps.push_back(category_app_profile(cat, 0));
  const exp::SweepResult res = sweep_at("fig14", 15000, apps);
  ASSERT_EQ(res.points.size(), workload_categories().size());
  for (const exp::PointResult& pr : res.points) {
    EXPECT_EQ(pr.sim.uops, 15000u) << pr.point.profile.name;
    EXPECT_GT(pr.speedup(), 0.7) << pr.point.profile.name;
  }
}

}  // namespace
}  // namespace hcsim
