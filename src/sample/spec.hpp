// hcsim — warm-up/measure sampling windows (src/sample).
//
// The paper's figures come from 100M-instruction traces; simulating every
// µop of such a trace is ~10s of serial CPU even on the streaming pipeline.
// Classic sampled simulation cuts that by orders of magnitude: slice the
// trace into periodic windows, feed each window's first K µops as *warm-up*
// (predictors/caches/schedulers train, counters are discarded), measure the
// next M µops, and skip the rest of the period entirely. A SampleSpec
// describes that schedule; plan_windows() turns it into concrete record
// ranges over one trace.
//
// Window checkpoint contract (see core/pipeline.hpp): every window is
// re-simulated from a cold Pipeline, so a window is a pure function of
// (machine config, program, record range). A sampled run is therefore the
// same whichever stream backend delivers its records and whichever other
// configs share its pass.
//
// A spec travels as a value: simulate_workload, the windowed simulator and
// every hcsimd job take it as an argument, so a result depends on its own
// spec only.
#pragma once

#include <string>
#include <vector>

#include "util/types.hpp"

namespace hcsim::sample {

/// A periodic warm-up/measure sampling schedule over one dynamic trace.
struct SampleSpec {
  /// µops fed before measurement in each window; counters discarded.
  u64 warmup = 0;
  /// µops measured per window. 0 disables sampling entirely.
  u64 measure = 0;
  /// Distance between window starts. 0 = auto: the trace is split into
  /// kAutoWindows equal periods (at least warmup+measure each). Must
  /// otherwise be >= warmup + measure.
  u64 period = 0;
  /// Cap on the number of windows; 0 = unlimited.
  u64 max_windows = 0;

  /// Window count targeted by the auto period (period == 0).
  static constexpr u64 kAutoWindows = 20;

  bool enabled() const { return measure > 0; }

  /// The concrete period for a trace of `trace_len` records.
  u64 resolved_period(u64 trace_len) const;

  /// Fatal when spec_error() names a broken rule.
  void validate() const;

  /// "warmup=20000 measure=80000 period=auto windows=all"-style summary.
  std::string describe() const;
  bool operator==(const SampleSpec&) const = default;
};

/// The first rule an enabled spec breaks, or "" when it breaks none:
/// warmup + measure must fit in a u64, and a nonzero period must be at least
/// warmup + measure. Front ends that take a spec from a user or a socket
/// check this and refuse the spec; validate() aborts on it.
std::string spec_error(const SampleSpec& spec);

/// Spec assembled from the HCSIM_SAMPLE_WARMUP / HCSIM_SAMPLE_MEASURE /
/// HCSIM_SAMPLE_PERIOD / HCSIM_SAMPLE_MAX_WINDOWS environment variables.
/// Sampling stays disabled unless HCSIM_SAMPLE_MEASURE is set (warmup alone
/// defaults to kDefaultWarmup so `--sampled` flags have a sane base).
SampleSpec spec_from_env();

inline constexpr u64 kDefaultWarmup = 20000;
inline constexpr u64 kDefaultMeasure = 80000;

/// Process-wide active spec: initialized from spec_from_env(), overridable
/// by CLI front-ends. One entry point reads it, once per call:
/// exp::run_sweep (so every sweep and figure bench honours HCSIM_SAMPLE_*).
/// Everything below it takes the spec as an argument. Set it before
/// calling run_sweep — reads are unsynchronized by design.
const SampleSpec& active_sample_spec();
void set_active_sample_spec(const SampleSpec& spec);

/// One window of a planned schedule: records [begin, begin+warmup) warm the
/// machine, records [measure_begin(), end()) are measured.
struct WindowRange {
  u64 index = 0;
  u64 begin = 0;
  u64 warmup = 0;   // actual warm-up µops (== spec.warmup; never truncated)
  u64 measure = 0;  // actual measured µops (final window may be truncated)

  u64 measure_begin() const { return begin + warmup; }
  u64 end() const { return begin + warmup + measure; }
};

/// Chop [0, trace_len) into measurement windows. The final window is
/// truncated when the trace ends mid-measure; windows whose measure region
/// would be empty (trace ends during warm-up) are dropped. An empty result
/// means the trace is too short to sample — callers fall back to a full run.
std::vector<WindowRange> plan_windows(const SampleSpec& spec, u64 trace_len);

}  // namespace hcsim::sample
