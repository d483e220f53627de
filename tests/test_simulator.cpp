// Tests for the simulation facade.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "exp/runner.hpp"
#include "sim/simulator.hpp"

namespace hcsim {
namespace {

TEST(Simulator, CachedTraceReturnsSameObject) {
  const WorkloadProfile& p = spec_profile("gcc");
  const Trace& a = cached_trace(p, 5000);
  const Trace& b = cached_trace(p, 5000);
  EXPECT_EQ(&a, &b);
  const Trace& c = cached_trace(p, 6000);
  EXPECT_NE(&a, &c);
}

/// One sweep of `apps` x `steers` at `len` µops.
exp::SweepResult sweep_of(std::vector<WorkloadProfile> apps,
                          const std::vector<SteeringConfig>& steers, u64 len) {
  exp::SweepSpec spec;
  spec.workloads = std::move(apps);
  for (const SteeringConfig& s : steers)
    spec.variants.push_back(exp::variant_from_steering(s));
  spec.trace_lens = {len};
  return exp::run_sweep(spec);
}

TEST(Simulator, SweepPointProducesBothMachines) {
  const exp::SweepResult res = sweep_of({spec_profile("gcc")}, {steering_888()}, 10000);
  ASSERT_EQ(res.points.size(), 1u);
  const exp::PointResult& run = res.points.front();
  EXPECT_EQ(run.point.profile.name, "gcc");
  EXPECT_EQ(run.baseline.uops, 10000u);
  EXPECT_EQ(run.sim.uops, 10000u);
  EXPECT_EQ(run.baseline.config, "baseline");
  EXPECT_EQ(run.sim.config, "8_8_8");
  EXPECT_GT(run.speedup(), 0.0);
  EXPECT_NEAR(run.perf_increase_pct(), (run.speedup() - 1.0) * 100.0, 1e-12);
}

TEST(Simulator, SweepCellSharesBaseline) {
  const exp::SweepResult res =
      sweep_of({spec_profile("gzip")}, {steering_888(), steering_ir()}, 10000);
  ASSERT_EQ(res.points.size(), 2u);
  EXPECT_EQ(res.points[0].sim.config, "8_8_8");
  EXPECT_EQ(res.points[1].sim.config, "8_8_8+BR+LR+CR+CP+IR");
  EXPECT_EQ(res.points[0].baseline.uops, res.points[0].sim.uops);
  EXPECT_EQ(res.points[0].baseline.final_tick, res.points[1].baseline.final_tick);
}

TEST(Simulator, SpecSuiteCoversAllApps) {
  const exp::SweepResult res = sweep_of(spec_int_2000_profiles(), {steering_888()}, 5000);
  ASSERT_EQ(res.points.size(), 12u);
  std::set<std::string> names;
  for (const auto& r : res.points) names.insert(r.point.profile.name);
  EXPECT_EQ(names.size(), 12u);
}

TEST(Simulator, DescribeMachineMentionsTable1Parameters) {
  const std::string s = describe_machine(helper_machine(steering_ir()));
  EXPECT_NE(s.find("32 entry scheduler, 3 issue"), std::string::npos);
  EXPECT_NE(s.find("32KB"), std::string::npos);
  EXPECT_NE(s.find("4MB"), std::string::npos);
  EXPECT_NE(s.find("450 cycles"), std::string::npos);
  EXPECT_NE(s.find("8-bit"), std::string::npos);
  EXPECT_NE(s.find("2x clock"), std::string::npos);
}

TEST(Simulator, BaselineDescriptionOmitsHelper) {
  const std::string s = describe_machine(monolithic_baseline());
  EXPECT_EQ(s.find("Helper cluster"), std::string::npos);
}

TEST(Simulator, DefaultTraceLenPositive) {
  EXPECT_GT(default_trace_len(), 0u);
}

TEST(Simulator, MachineConfigFactories) {
  EXPECT_FALSE(monolithic_baseline().steer.helper_enabled);
  EXPECT_TRUE(helper_machine(steering_888()).steer.helper_enabled);
  EXPECT_TRUE(helper_machine(steering_ir()).steer.ir);
}

}  // namespace
}  // namespace hcsim
