#include "sim/simulator.hpp"

#include <span>
#include <sstream>
#include <vector>

#include "rv/kernels.hpp"
#include "sample/windowed.hpp"
#include "util/log.hpp"
#include "wload/program_gen.hpp"

namespace hcsim {

u64 default_trace_len() {
  static const u64 kLen = env_u64("HCSIM_TRACE_LEN", 300000);
  return kLen;
}

SimResult simulate_streamed(const MachineConfig& cfg, const WorkloadProfile& profile,
                            u64 n_records) {
  if (n_records == 0) n_records = default_trace_len();
  if (!profile.rv_kernel.empty()) {
    // RV kernels stream push-side: the functional executor drives a sink
    // that cracks each instruction into a bounded staging buffer; full
    // chunks flow to the pipeline's batched (SoA-classified) feed.
    const rv::KernelStream stream = rv::open_kernel_stream(profile.rv_kernel);
    Pipeline p(cfg, stream.cracked.program);
    std::vector<TraceRecord> buf;
    buf.reserve(kTraceChunkRecords);
    stream.pump(n_records, [&](const TraceRecord& rec) {
      buf.push_back(rec);
      if (buf.size() == kTraceChunkRecords) {
        p.feed(std::span<const TraceRecord>(buf));
        buf.clear();
      }
    });
    p.feed(std::span<const TraceRecord>(buf));
    return p.finish();
  }
  ProgramTraceCursor cursor(generate_program(profile), profile, n_records);
  return simulate(cfg, cursor);
}

SimResult simulate_workload(const MachineConfig& cfg, const WorkloadProfile& profile,
                            u64 n_records, const sample::SampleSpec& spec) {
  if (n_records == 0) n_records = default_trace_len();
  if (spec.enabled())
    return sample::simulate_sampled(cfg, profile, n_records, spec).total;
  if (n_records <= stream_threshold())
    return simulate(cfg, *acquire_trace(profile, n_records));
  return simulate_streamed(cfg, profile, n_records);
}

std::string describe_machine(const MachineConfig& cfg) {
  std::ostringstream os;
  os << "Machine configuration (Table 1 baseline";
  if (cfg.steer.helper_enabled) os << " + helper cluster";
  os << ")\n";
  os << "  Trace Cache fetch width : " << cfg.fetch_width << " uops/cycle\n";
  os << "  Rename / commit width   : " << cfg.rename_width << " / " << cfg.commit_width
     << "\n";
  os << "  ROB entries             : " << cfg.rob_entries << "\n";
  os << "  Int execution           : " << cfg.iq_wide << " entry scheduler, "
     << cfg.issue_wide << " issue\n";
  os << "  Fp execution            : " << cfg.iq_fp << " entry scheduler, "
     << cfg.issue_fp << " issue\n";
  if (cfg.steer.helper_enabled) {
    os << "  Helper cluster          : " << cfg.helper_width_bits << "-bit, "
       << cfg.iq_helper << " entry scheduler, " << cfg.issue_helper << " issue, "
       << cfg.ticks_per_wide_cycle << "x clock\n";
    os << "  Steering                : " << cfg.steer.describe() << "\n";
  }
  os << "  DL0                     : " << cfg.mem.dl0.size_bytes / 1024 << "KB, "
     << cfg.mem.dl0.ways << "w, " << cfg.mem.dl0.latency_cycles << " cycle, "
     << cfg.mem.dl0.ports << " R/W port\n";
  os << "  UL1                     : " << cfg.mem.ul1.size_bytes / (1024 * 1024)
     << "MB, " << cfg.mem.ul1.ways << "w, " << cfg.mem.ul1.latency_cycles
     << " cycle, " << cfg.mem.ul1.ports << " R/W port\n";
  os << "  Main memory             : " << cfg.mem.main_memory_cycles << " cycles\n";
  return os.str();
}

}  // namespace hcsim
