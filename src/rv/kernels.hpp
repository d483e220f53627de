// hcsim — bundled RV32I kernel suite.
//
// The `.s` sources live in examples/rv/; CMake embeds them into the library
// at configure time (rv_kernels_data.inc), so every tool and test can run
// the suite without caring about source-tree paths. Kernels are registered
// as first-class workloads: rv_workload_profile() wraps one in a
// WorkloadProfile whose `rv_kernel` field routes trace generation through
// the assembler/executor/cracker instead of the synthetic program generator.
#pragma once

#include <string>
#include <vector>

#include "rv/crack.hpp"
#include "trace/trace.hpp"
#include "wload/profile.hpp"

namespace hcsim::rv {

struct RvKernel {
  std::string name;    // file stem, e.g. "crc32"
  std::string source;  // full assembly text
};

/// The embedded kernel suite, sorted by name. Empty only when the library
/// was built without the generated data (non-CMake builds).
const std::vector<RvKernel>& bundled_kernels();

/// Look up a bundled kernel; nullptr when unknown.
const RvKernel* find_kernel(const std::string& name);

/// A WorkloadProfile that routes through the RV frontend (profile.rv_kernel
/// set, name = kernel name). Aborts on unknown kernels.
WorkloadProfile rv_workload_profile(const std::string& name);

/// All bundled kernels as workload profiles (the `rv` sweep's workload set).
std::vector<WorkloadProfile> rv_workload_profiles();

/// Assemble + execute + crack a bundled kernel into a trace of at most
/// `max_uops` dynamic µops. Deterministic; aborts on unknown kernel or
/// assembly/execution failure (bundled kernels must be valid).
Trace kernel_trace(const std::string& name, u64 max_uops);

/// Streaming form of kernel_trace: the assembled binary plus its cracked
/// static program, ready to pump the dynamic record stream into a consumer
/// (e.g. Pipeline::feed) without materializing it. The stream is
/// bit-identical to kernel_trace's record vector.
struct KernelStream {
  RvProgram binary;
  CrackedProgram cracked;

  /// Execute the kernel, pushing every dynamic µop record to `sink`,
  /// bounded by `max_uops`. Aborts if the kernel traps.
  RvTraceInfo pump(u64 max_uops,
                   const std::function<void(const TraceRecord&)>& sink) const;
};

/// Assemble + crack a bundled kernel (no dynamic execution yet).
KernelStream open_kernel_stream(const std::string& name);

}  // namespace hcsim::rv
