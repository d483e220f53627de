// Tests for the wattch-style power model.
#include <gtest/gtest.h>

#include "exp/runner.hpp"
#include "power/power_model.hpp"
#include "sim/simulator.hpp"

namespace hcsim {
namespace {

SimResult fake_result() {
  SimResult r;
  r.uops = 1000;
  r.final_tick = 4000;
  r.wide_cycles = 2000;
  r.branches = 100;
  r.copies = 50;
  r.counters["issue_wide"] = 700;
  r.counters["issue_helper"] = 300;
  r.counters["issue_fp"] = 20;
  r.counters["rf_write_wide"] = 600;
  r.counters["rf_write_helper"] = 250;
  r.counters["dl0_accesses"] = 200;
  r.counters["ul1_accesses"] = 20;
  r.counters["wpred_lookups"] = 1000;
  return r;
}

TEST(Power, EnergyPositiveAndDecomposes) {
  const SimResult r = fake_result();
  const PowerReport rep = analyze_power(r, helper_machine(steering_ir()));
  EXPECT_GT(rep.energy, 0.0);
  const double sum = rep.frontend + rep.wide_backend + rep.helper_backend +
                     rep.memory + rep.clock + rep.copies + rep.predictors;
  EXPECT_NEAR(rep.energy, sum, 1e-9);
}

TEST(Power, EdpMath) {
  const SimResult r = fake_result();
  const PowerReport rep = analyze_power(r, monolithic_baseline());
  EXPECT_DOUBLE_EQ(rep.delay, r.wide_cycles);
  EXPECT_DOUBLE_EQ(rep.edp, rep.energy * rep.delay);
  EXPECT_DOUBLE_EQ(rep.ed2p, rep.energy * rep.delay * rep.delay);
}

TEST(Power, HelperClusterAddsClockEnergy) {
  const SimResult r = fake_result();
  const PowerReport base = analyze_power(r, monolithic_baseline());
  const PowerReport helper = analyze_power(r, helper_machine(steering_888()));
  EXPECT_GT(helper.clock, base.clock);
}

TEST(Power, HelperAccessesCheaperThanWide) {
  // Same issue count in the helper must cost less than in the wide backend
  // (width-scaled structures, Section 2.1).
  SimResult wide_heavy = fake_result();
  wide_heavy.counters["issue_wide"] = 1000;
  wide_heavy.counters["issue_helper"] = 0;
  SimResult helper_heavy = fake_result();
  helper_heavy.counters["issue_wide"] = 0;
  helper_heavy.counters["issue_helper"] = 1000;
  const MachineConfig cfg = helper_machine(steering_888());
  const PowerReport w = analyze_power(wide_heavy, cfg);
  const PowerReport h = analyze_power(helper_heavy, cfg);
  EXPECT_GT(w.wide_backend, h.helper_backend);
}

TEST(Power, MonotonicInActivity) {
  SimResult lo = fake_result();
  SimResult hi = fake_result();
  hi.counters["issue_wide"] += 1000;
  hi.copies += 100;
  const MachineConfig cfg = monolithic_baseline();
  EXPECT_GT(analyze_power(hi, cfg).energy, analyze_power(lo, cfg).energy);
}

TEST(Power, CopiesCostEnergy) {
  SimResult with = fake_result();
  SimResult without = fake_result();
  without.copies = 0;
  const MachineConfig cfg = helper_machine(steering_888());
  EXPECT_GT(analyze_power(with, cfg).copies, analyze_power(without, cfg).copies);
}

TEST(Power, EndToEndEd2Comparison) {
  // Section 3.7: the helper cluster in its most aggressive configuration is
  // ED^2-favourable versus the baseline (paper: 5.1% better). Check the
  // direction on a real run.
  exp::SweepSpec spec;
  spec.workloads = {spec_profile("gcc")};
  spec.variants = {exp::variant_from_steering(steering_ir())};
  spec.trace_lens = {30000};
  const exp::PointResult run = exp::run_sweep(spec).points.front();
  const PowerReport& pb = run.power_baseline;
  const PowerReport& ph = run.power_sim;
  EXPECT_LT(ph.ed2p, pb.ed2p);
  // Energy itself goes up (extra cluster, fast clock tree, copies).
  EXPECT_GT(ph.energy, pb.energy);
}

}  // namespace
}  // namespace hcsim
