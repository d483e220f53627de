// hcsim — structured synthetic program generator.
//
// Generates small, well-formed loop-nest programs whose functional
// execution exhibits the width-relevant behaviour described by a
// WorkloadProfile: narrow byte-processing chains, wide pointer arithmetic,
// carry-confined base+offset addressing (the CR case of Figure 10),
// data-dependent branches whose flags producers are narrow (the BR case),
// long-latency integer and FP chains, and cross-width value uses that
// create inter-cluster copy pressure.
#pragma once

#include <string>

#include "trace/trace.hpp"
#include "wload/profile.hpp"

namespace hcsim {

/// Address-space layout used by generated programs and the synthetic memory
/// model. Regions are disjoint by construction; classification is by range.
namespace mem_layout {
inline constexpr u32 kByteRegionBase = 0x10000000u;
inline constexpr u32 kWordRegionBase = 0x40000000u;
inline constexpr u32 kPtrRegionBase = 0x80000000u;  // CR bases / pointer chase
inline constexpr u32 kRegionLimit = 0xF0000000u;

constexpr bool in_byte_region(u32 a) { return a >= kByteRegionBase && a < kWordRegionBase; }
constexpr bool in_word_region(u32 a) { return a >= kWordRegionBase && a < kPtrRegionBase; }
constexpr bool in_ptr_region(u32 a) { return a >= kPtrRegionBase && a < kRegionLimit; }
}  // namespace mem_layout

/// The first rule `profile` breaks that trace generation cannot run with,
/// or "" if none: rv_kernel is empty or a bundled kernel; footprints keep
/// every array base in its region (byte_footprint_log2 <= 29,
/// word_footprint_log2 <= 30); body_chains_min <= body_chains_max and
/// trip_min <= trip_max; and at most 1024 loops of at most 64 chains, which
/// caps a program at about 1.2M static µops (24 MB), and the decoded copy a
/// live ProgramTraceCursor holds at 16 bytes per static µop (about 19 MB).
/// generate_program aborts on a failing profile; hcsimd refuses the job.
std::string workload_profile_error(const WorkloadProfile& profile);

/// Build the static program for `profile`. Deterministic in profile.seed.
/// Aborts when workload_profile_error names a broken rule.
Program generate_program(const WorkloadProfile& profile);

}  // namespace hcsim
