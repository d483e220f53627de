#include "sample/spec.hpp"

#include <algorithm>
#include <limits>
#include <sstream>

#include "util/log.hpp"

namespace hcsim::sample {

u64 SampleSpec::resolved_period(u64 trace_len) const {
  if (period != 0) return period;
  // Auto mode: kAutoWindows equal periods across the trace, but never so
  // short that windows overlap.
  const u64 auto_period = trace_len / kAutoWindows;
  return std::max(warmup + measure, auto_period);
}

void SampleSpec::validate() const {
  const std::string error = spec_error(*this);
  HCSIM_CHECK(error.empty(), "SampleSpec: " + error);
}

std::string spec_error(const SampleSpec& spec) {
  if (!spec.enabled()) return "";
  if (spec.warmup > std::numeric_limits<u64>::max() - spec.measure)
    return "sample warmup + measure overflows u64";
  if (spec.period != 0 && spec.period < spec.warmup + spec.measure)
    return "sample period must be 0 (auto) or >= warmup + measure";
  return "";
}

std::string SampleSpec::describe() const {
  if (!enabled()) return "sampling disabled";
  std::ostringstream os;
  os << "warmup=" << warmup << " measure=" << measure << " period=";
  if (period == 0)
    os << "auto(len/" << kAutoWindows << ")";
  else
    os << period;
  os << " windows=";
  if (max_windows == 0)
    os << "all";
  else
    os << max_windows;
  return os.str();
}

SampleSpec spec_from_env() {
  SampleSpec s;
  s.warmup = env_u64("HCSIM_SAMPLE_WARMUP", kDefaultWarmup);
  s.measure = env_u64("HCSIM_SAMPLE_MEASURE", 0);
  s.period = env_u64("HCSIM_SAMPLE_PERIOD", 0);
  s.max_windows = env_u64("HCSIM_SAMPLE_MAX_WINDOWS", 0);
  s.validate();
  return s;
}

namespace {
SampleSpec& active_spec_storage() {
  static SampleSpec spec = spec_from_env();
  return spec;
}
}  // namespace

const SampleSpec& active_sample_spec() { return active_spec_storage(); }

void set_active_sample_spec(const SampleSpec& spec) {
  spec.validate();
  active_spec_storage() = spec;
}

std::vector<WindowRange> plan_windows(const SampleSpec& spec, u64 trace_len) {
  spec.validate();
  std::vector<WindowRange> windows;
  if (!spec.enabled() || trace_len == 0) return windows;
  const u64 period = spec.resolved_period(trace_len);
  for (u64 begin = 0; begin < trace_len; begin += period) {
    if (spec.max_windows != 0 && windows.size() >= spec.max_windows) break;
    if (begin + spec.warmup >= trace_len) break;  // trace ends during warm-up
    WindowRange w;
    w.index = windows.size();
    w.begin = begin;
    w.warmup = spec.warmup;
    w.measure = std::min(spec.measure, trace_len - begin - spec.warmup);
    windows.push_back(w);
  }
  return windows;
}

}  // namespace hcsim::sample
