// hcsim — workload profiles.
//
// The paper evaluates on proprietary traces: 12 SPEC Int 2000 traces for the
// detailed studies and 412 traces across 7 categories (Table 2) for the
// wrap-up. We cannot ship those, so each workload is described by a profile
// that drives a structured program generator (program_gen.hpp) whose
// functional execution reproduces the *width-relevant* characteristics the
// steering policies key on: narrow-operand mix, narrow data-width
// dependency (Figure 1), width predictability (Figure 5), carry-confinement
// rates (Figure 11), producer-consumer distances (Figure 13), copy pressure
// and memory behaviour.
#pragma once

#include <string>
#include <vector>

#include "util/types.hpp"

namespace hcsim {

struct WorkloadProfile {
  std::string name;
  u64 seed = 1;

  /// Non-empty = this workload is a bundled RISC-V kernel (src/rv): trace
  /// generation assembles, executes and cracks the named kernel instead of
  /// running the synthetic program generator, and every other knob below is
  /// ignored. RV traces are deterministic functions of the kernel source
  /// alone, so `seed` only participates in cache keying.
  std::string rv_kernel;

  // --- static code shape -------------------------------------------------
  unsigned num_loops = 12;       // top-level loop nests in the program
  unsigned body_chains_min = 2;  // compute chains per loop body
  unsigned body_chains_max = 6;
  double p_nested_loop = 0.3;    // probability a loop nest has depth 2

  // --- chain mix (normalised internally) ----------------------------------
  double w_narrow_chain = 1.0;  // byte loads + narrow ALU (+ byte store)
  double w_wide_chain = 1.0;    // pointer arithmetic + word loads
  double w_cr_chain = 0.6;      // wide base + narrow offset address math
  double w_muldiv_chain = 0.05; // long-latency integer
  double w_fp_chain = 0.0;      // FP arithmetic (wide cluster only)
  double w_branchy_chain = 0.4; // data-dependent forward branches

  // --- value behaviour -----------------------------------------------------
  /// Probability that a narrow chain's final value is additionally consumed
  /// by a wide computation (indexing/addressing) — this is the knob that
  /// creates inter-cluster copy pressure (high for bzip2, low for gcc in the
  /// paper's Figure 6/7 discussion).
  double p_cross_width_use = 0.25;
  /// Fraction of word-array elements that happen to be narrow (value
  /// locality of loads); lower values make width prediction harder.
  double value_stability = 0.92;
  /// Probability that a CR-style base register has a large low byte so the
  /// narrow-offset add carries into the upper bits (fatal CR misprediction).
  double p_carry_propagate = 0.10;

  // --- loop behaviour ------------------------------------------------------
  unsigned trip_min = 8;
  unsigned trip_max = 180;       // < 256 keeps induction variables narrow
  double p_wide_loop = 0.12;     // loops with trip counts up to ~4000

  // --- memory behaviour ----------------------------------------------------
  /// log2 of the byte-array footprint; large values defeat the caches
  /// (mcf-style memory-bound behaviour).
  unsigned byte_footprint_log2 = 14;
  unsigned word_footprint_log2 = 16;
  double p_pointer_chase = 0.0;  // wide loads feeding the next load address

  // --- instruction mix extras ---------------------------------------------
  double p_store = 0.45;  // stores appended to narrow chains
  /// Fraction of data-dependent branches whose flags producer tests a
  /// narrow value (byte compares) rather than a wide one (pointer
  /// compares). Narrow flags producers are what the BR scheme chases.
  double p_narrow_flags = 0.70;

  /// Every field: two profiles generate the same trace when they are equal.
  bool operator==(const WorkloadProfile&) const = default;
};

/// The 12 SPEC Int 2000 benchmarks of the paper's detailed evaluation.
const std::vector<WorkloadProfile>& spec_int_2000_profiles();

/// Look up a single SPEC profile by name ("gcc", "mcf", ...). Aborts if
/// unknown.
const WorkloadProfile& spec_profile(const std::string& name);

/// Table 2 workload categories.
struct WorkloadCategory {
  std::string name;         // enc, sfp, kernels, mm, office, prod, ws
  std::string description;  // paper's description column
  unsigned num_traces;      // paper's #traces column
  WorkloadProfile base;     // family base profile; apps jitter around it
};

const std::vector<WorkloadCategory>& workload_categories();

/// The i-th application of a category: base profile with deterministic
/// per-app parameter jitter (i in [0, num_traces)).
WorkloadProfile category_app_profile(const WorkloadCategory& cat, unsigned index);

}  // namespace hcsim
