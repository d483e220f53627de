#include "rv/kernels.hpp"

#include <algorithm>

#include "rv/assembler.hpp"
#include "rv/crack.hpp"
#include "util/log.hpp"

namespace hcsim::rv {

const std::vector<RvKernel>& bundled_kernels() {
  static const std::vector<RvKernel> kKernels = [] {
    std::vector<RvKernel> v = {
#if __has_include("rv_kernels_data.inc")
#include "rv_kernels_data.inc"
#endif
    };
    std::sort(v.begin(), v.end(),
              [](const RvKernel& a, const RvKernel& b) { return a.name < b.name; });
    return v;
  }();
  return kKernels;
}

const RvKernel* find_kernel(const std::string& name) {
  for (const RvKernel& k : bundled_kernels())
    if (k.name == name) return &k;
  return nullptr;
}

WorkloadProfile rv_workload_profile(const std::string& name) {
  HCSIM_CHECK(find_kernel(name) != nullptr, "unknown rv kernel: " + name);
  WorkloadProfile p;
  p.name = name;
  p.rv_kernel = name;
  p.seed = 1;  // RV traces are seedless; 1 keeps the cache key stable
  return p;
}

std::vector<WorkloadProfile> rv_workload_profiles() {
  std::vector<WorkloadProfile> out;
  for (const RvKernel& k : bundled_kernels()) out.push_back(rv_workload_profile(k.name));
  return out;
}

Trace kernel_trace(const std::string& name, u64 max_uops) {
  // Built on the streaming primitive, so the materialized vector and a
  // KernelStream pump are bit-identical by construction.
  const KernelStream stream = open_kernel_stream(name);
  Trace trace;
  trace.program = stream.cracked.program;
  trace.seed = 1;  // RV traces are seedless: the program fully determines them
  stream.pump(max_uops, [&](const TraceRecord& r) { trace.records.push_back(r); });
  HCSIM_CHECK(!trace.records.empty(), "kernel produced an empty trace: " + name);
  return trace;
}

RvTraceInfo KernelStream::pump(u64 max_uops,
                               const std::function<void(const TraceRecord&)>& sink) const {
  RvTraceInfo info = stream_from_program(binary, cracked, max_uops, sink);
  HCSIM_CHECK(info.error.empty(),
              "bundled kernel trapped: " + cracked.program.name + ": " + info.error);
  return info;
}

KernelStream open_kernel_stream(const std::string& name) {
  const RvKernel* k = find_kernel(name);
  HCSIM_CHECK(k != nullptr, "unknown rv kernel: " + name);
  AsmResult as = assemble(k->name, k->source);
  HCSIM_CHECK(as.ok(), "bundled kernel failed to assemble: " + as.error);
  KernelStream stream;
  stream.binary = std::move(as.program);
  stream.cracked = crack_program(stream.binary);
  return stream;
}

}  // namespace hcsim::rv
