// hcsim — top-level simulation facade shared by examples, benches and tests.
//
// Wraps workload generation and the shared trace cache (trace_cache.hpp: a
// trace lives while the jobs that read it run): one workload on one machine
// config. The baseline-vs-helper-cluster comparison every figure reports is
// a sweep (exp/runner.hpp).
#pragma once

#include <string>

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

/// Print the Table 1 machine parameters.
std::string describe_machine(const MachineConfig& cfg);

}  // namespace hcsim
