// hcsim — declarative experiment sweeps.
//
// Every figure in the paper is a grid: applications x steering (or machine)
// configurations, sometimes x seeds or trace lengths. A SweepSpec describes
// that grid declaratively; expand() turns it into a flat, deterministically
// ordered list of ExperimentPoints that the runner (runner.hpp) executes —
// serially or on a thread pool — with identical results either way.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/machine_config.hpp"
#include "wload/profile.hpp"

namespace hcsim::exp {

/// One named machine configuration under test. For the common case (Table 1
/// machine + a steering scheme) use variant_from_steering(); ablations can
/// supply a fully customised MachineConfig (clock ratio, datapath width,
/// scheduler sizing, ...).
struct ConfigVariant {
  std::string name;
  MachineConfig machine;
};

/// Variant named after the steering scheme (e.g. "8_8_8+BR+LR+CR"), running
/// on the Table 1 helper machine.
ConfigVariant variant_from_steering(const SteeringConfig& steer);

/// The canonical cumulative scheme ladder of the evaluation section:
/// 8_8_8, +BR, +LR, +CR, +CP, +IR, IR-nodest.
std::vector<ConfigVariant> cumulative_scheme_variants();

/// A declarative experiment grid. Empty `seeds` means "each profile's own
/// seed"; empty `trace_lens` means "default_trace_len() once".
struct SweepSpec {
  std::string name;
  std::vector<WorkloadProfile> workloads;
  std::vector<ConfigVariant> variants;
  std::vector<u64> seeds;       // overrides profile.seed when non-empty
  std::vector<u64> trace_lens;  // 0 entries resolve to default_trace_len()
  /// The machine every point's speedup is measured against.
  MachineConfig baseline;

  SweepSpec();  // baseline = monolithic_baseline()

  /// Grid size after applying the empty-dimension defaults.
  u64 num_points() const;
};

/// One cell of the expanded grid.
struct ExperimentPoint {
  u32 index = 0;  // position in expansion order (workload-major)
  u32 workload_idx = 0, variant_idx = 0, seed_idx = 0, len_idx = 0;
  WorkloadProfile profile;  // seed already applied
  ConfigVariant variant;
  u64 n_records = 0;  // resolved trace length
};

/// Deterministic grid expansion: workload-major, then variant, then seed,
/// then trace length. `point.index` equals the position in the returned
/// vector.
std::vector<ExperimentPoint> expand(const SweepSpec& spec);

// --- named sweeps (used by the hcsim_sweep CLI and the benches) -----------

/// Registry of predefined sweeps, one per paper figure that simulates:
/// fig05, fig06, fig12, fig14, cumulative, edp, helper_design,
/// predictor_size, ir_block, rv (bundled RISC-V kernels x cumulative
/// ladder), and smoke.
const std::vector<std::string>& sweep_names();

/// Look up a predefined sweep. std::nullopt if the name is unknown.
std::optional<SweepSpec> find_sweep(const std::string& name);

}  // namespace hcsim::exp
