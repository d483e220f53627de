// hcsim — machine configuration (Table 1 baseline + helper cluster knobs).
#pragma once

#include <string>

#include "mem/memory_system.hpp"
#include "predict/branch_predictor.hpp"
#include "predict/width_predictor.hpp"
#include "steer/steering.hpp"
#include "util/types.hpp"

namespace hcsim {

struct MachineConfig {
  // --- frontend (shared by both backends, Figure 2) -----------------------
  unsigned fetch_width = 6;    // µops per wide cycle out of the trace cache
  unsigned rename_width = 6;
  unsigned commit_width = 6;   // Table 1: commit width 6
  unsigned rob_entries = 128;
  /// Fetch-to-dispatch depth in wide cycles; also the branch-redirect and
  /// width-misprediction refill penalty.
  unsigned frontend_depth = 8;

  // --- wide (32-bit) backend: Table 1 -------------------------------------
  unsigned iq_wide = 32;        // integer scheduler entries
  unsigned issue_wide = 3;
  unsigned iq_fp = 32;          // FP scheduler entries
  unsigned issue_fp = 3;

  // --- helper (8-bit) backend: Section 2 ----------------------------------
  unsigned iq_helper = 32;
  unsigned issue_helper = 3;
  unsigned helper_width_bits = 8;
  /// Helper clock ratio: wide-cycle length in ticks (helper cycle = 1 tick).
  /// 2 reproduces the paper's clocking argument (Section 2.2).
  unsigned ticks_per_wide_cycle = 2;

  // --- inter-cluster communication (PACT'99 copy scheme) ------------------
  /// Transfer latency of a copy µop's value, in wide cycles, after the copy
  /// issues in the producer's cluster.
  unsigned copy_transfer_cycles = 1;
  /// Copy µops have their own scheduling resources (Section 4): issue ports
  /// per producer-cluster cycle dedicated to copies.
  unsigned copy_ports = 2;

  // --- substructures --------------------------------------------------------
  MemoryConfig mem;
  WidthPredictorConfig wpred;
  BranchPredictorConfig bpred;
  SteeringConfig steer;
};

/// The paper's baseline monolithic machine (Table 1): helper disabled.
MachineConfig monolithic_baseline();

/// Baseline + helper cluster with the given steering configuration.
MachineConfig helper_machine(const SteeringConfig& steer);

/// The first rule `cfg` breaks that the pipeline cannot run with, or "" if
/// none: the checks Pipeline's components make when built (slot widths,
/// queue sizes, clock ratio, predictor tables, cache geometry), plus at
/// least one ROB entry and one copy port, and an upper bound on every field
/// that sizes an allocation (ROB entries, predictor table entries, cache
/// lines). Pipeline aborts on a failing config; the daemon refuses the job.
std::string machine_config_error(const MachineConfig& cfg);

}  // namespace hcsim
