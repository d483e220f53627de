// hcsim — top-level simulation facade shared by examples, benches and tests.
//
// Wraps workload generation, the shared trace cache (trace_cache.hpp: a
// trace lives while the jobs that read it run), and the
// baseline-vs-helper-cluster comparison that every figure reports.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "sample/spec.hpp"
#include "sim/trace_cache.hpp"
#include "wload/executor.hpp"
#include "wload/profile.hpp"

namespace hcsim {

/// Default dynamic trace length for experiments. The paper simulates 100M
/// instructions per trace; shapes here are stable beyond ~200k µops, so the
/// default is CI-friendly and the HCSIM_TRACE_LEN environment variable
/// scales it up for higher-fidelity runs.
u64 default_trace_len();

/// Always-streaming simulation: records flow from the workload generator
/// (or the RV kernel cracker) straight into the pipeline, O(chunk) memory.
/// Bit-identical to simulate(cfg, *acquire_trace(profile, n_records)).
SimResult simulate_streamed(const MachineConfig& cfg, const WorkloadProfile& profile,
                            u64 n_records);

/// Simulate one workload: a cached in-memory trace for runs at or below
/// stream_threshold(), held for the length of this call (so a caller that
/// holds the same key shares its trace), streaming above it.
/// When `spec` is enabled the run goes through the src/sample windowed
/// simulator instead and the returned result is the spliced measured-window
/// aggregate. The result is a function of the arguments alone.
/// n_records == 0 resolves to default_trace_len().
SimResult simulate_workload(const MachineConfig& cfg, const WorkloadProfile& profile,
                            u64 n_records, const sample::SampleSpec& spec);

/// One application simulated on the monolithic baseline and on a helper
/// cluster configuration.
struct AppRun {
  std::string app;
  SimResult baseline;
  SimResult helper;
  double speedup() const { return helper.speedup_vs(baseline); }
  double perf_increase_pct() const { return (speedup() - 1.0) * 100.0; }
};

/// Baseline and helper runs of one application, sharing one generation of
/// its trace. The active sample spec (sample::active_sample_spec(),
/// HCSIM_SAMPLE_*) is read once per call and applies to both runs — the
/// figure benches' sampling knob.
AppRun run_app(const WorkloadProfile& profile, const SteeringConfig& steer,
               u64 n_records = 0);

/// One application against several steering configurations (one generation
/// of the trace, held for the call, and a shared baseline run), under the
/// active sample spec read once per call.
struct MultiRun {
  std::string app;
  SimResult baseline;
  std::vector<SimResult> configs;
};

MultiRun run_app_configs(const WorkloadProfile& profile,
                         std::span<const SteeringConfig> configs,
                         u64 n_records = 0);

/// The 12-app SPEC Int 2000 sweep used by most figures.
std::vector<AppRun> run_spec_suite(const SteeringConfig& steer, u64 n_records = 0);

/// Print the Table 1 machine parameters.
std::string describe_machine(const MachineConfig& cfg);

}  // namespace hcsim
