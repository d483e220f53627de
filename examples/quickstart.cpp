// hcsim quickstart: generate a workload trace, simulate the monolithic
// baseline and a helper-cluster machine, and print the comparison.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
#include <cstdio>

#include "exp/runner.hpp"
#include "sim/simulator.hpp"

using namespace hcsim;

int main() {
  // 1. Pick a workload. SPEC Int 2000 profiles ship with the library; you
  //    can also build your own WorkloadProfile (see custom_workload.cpp).
  const WorkloadProfile& gcc = spec_profile("gcc");

  // 2. Pick a steering configuration. steering_ir() is the paper's best
  //    (8-8-8 + BR + LR + CR + CP + instruction splitting).
  const SteeringConfig steer = steering_ir();

  // 3. Run both machines on the same 200k-µop trace: a one-point sweep
  //    (the baseline is every sweep's reference machine).
  exp::SweepSpec sweep;
  sweep.workloads = {gcc};
  sweep.variants = {exp::variant_from_steering(steer)};
  sweep.trace_lens = {200000};
  const exp::PointResult run = exp::run_sweep(sweep).points.front();

  std::printf("%s", describe_machine(run.point.variant.machine).c_str());
  std::printf("\nworkload           : %s (%llu uops)\n", run.point.profile.name.c_str(),
              static_cast<unsigned long long>(run.sim.uops));
  std::printf("baseline IPC       : %.3f\n", run.baseline.ipc);
  std::printf("helper-cluster IPC : %.3f\n", run.sim.ipc);
  std::printf("speedup            : %.2f%%\n", run.perf_increase_pct());
  std::printf("steered to helper  : %.1f%%\n", 100.0 * run.sim.helper_frac());
  std::printf("copy instructions  : %.1f%%\n", 100.0 * run.sim.copy_frac());
  std::printf("width pred accuracy: %.1f%%\n", 100.0 * run.sim.wp_accuracy());

  // 4. Energy-delay^2 comparison (Section 3.7): a sweep point carries the
  //    power report of both machines.
  std::printf("ED^2 baseline/helper: %.3f (>1 means the helper wins)\n",
              run.power_baseline.ed2p / run.power_sim.ed2p);
  return 0;
}
