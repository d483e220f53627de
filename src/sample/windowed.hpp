// hcsim — the windowed (warm-up/measure) simulator.
//
// WindowedSimulator streams one deterministic trace through the sampling
// schedule of a SampleSpec: each window cold-starts a fresh Pipeline, feeds
// the window's warm-up µops (training predictors/caches/schedulers, counters
// discarded via a StatsCheckpoint taken at the warm-up/measure boundary),
// feeds the measure µops, and closes by subtracting the checkpoint — the
// window's *measured* counters. Measured windows are spliced in trace order
// into one SimResult whose derived statistics (IPC, hit rates, ...) are
// computed from the spliced integer totals.
//
// A run is one forward pass over one stream. Because a window is a pure
// function of (machine config, program, record range), one pass can serve
// several machine configs at once: each window cold-starts a pipeline per
// config and feeds them all the same record spans, so the configs of a
// sweep cell (the baseline plus its variants) read their trace once instead
// of once per config. Parallelism comes from the sweep's jobs, not from
// slicing one run's windows.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "core/machine_config.hpp"
#include "core/pipeline.hpp"
#include "sample/record_stream.hpp"
#include "sample/spec.hpp"

namespace hcsim::sample {

/// One measured window's spliced contribution.
struct WindowStats {
  WindowRange range;
  /// Counter deltas of the measured region; derived fields (ipc, hit rates)
  /// are finalized per window so the window table can show them.
  SimResult measured;
  u64 dl0_hits = 0, dl0_accesses = 0;  // measured-region cache deltas
  u64 ul1_hits = 0, ul1_accesses = 0;
};

struct SampledResult {
  SampleSpec spec;
  u64 trace_len = 0;       // requested dynamic length
  u64 simulated_uops = 0;  // warm-up + measured µops actually fed
  u64 measured_uops = 0;
  /// False when the plan had no measurable window (trace shorter than one
  /// warm-up) and the run fell back to full simulation.
  bool sampled = false;
  /// The spliced measured aggregate (or the full result on fallback).
  SimResult total;
  /// Per-window snapshots, in trace order. Windows the trace ended before
  /// reaching (e.g. an RV kernel halting early) are dropped.
  std::vector<WindowStats> windows;
};

class WindowedSimulator {
 public:
  WindowedSimulator(const MachineConfig& cfg, const SampleSpec& spec);

  /// Run the schedule over one trace: a single forward pass over one
  /// stream (the one-config case of simulate_configs). `threads` is
  /// ignored; the pass is always serial.
  SampledResult run(const StreamFactory& factory, u64 trace_len,
                    unsigned threads = 1) const;

 private:
  MachineConfig cfg_;
  SampleSpec spec_;
};

/// Sampled counterpart of simulate_workload(): trace routing matches it
/// (cached/materialized at or below stream_threshold(), streamed above).
/// n_records == 0 resolves to default_trace_len().
SampledResult simulate_sampled(const MachineConfig& cfg, const WorkloadProfile& profile,
                               u64 n_records, const SampleSpec& spec);

/// Every config of `cfgs` over the same workload trace in one serial pass:
/// one stream, and each window feeds a cold pipeline per config the same
/// record spans. With a disabled spec (or no measurable window) every
/// pipeline is fed the whole trace instead. Result k is bit-identical to
/// simulate_sampled(cfgs[k], profile, n_records, spec), and its `total` to
/// simulate_workload(cfgs[k], profile, n_records, spec); the trace is read
/// once, not once per config.
std::vector<SampledResult> simulate_configs(std::span<const MachineConfig> cfgs,
                                            const WorkloadProfile& profile, u64 n_records,
                                            const SampleSpec& spec);

/// Sampled run over an already-materialized trace (loaded .hctrace files).
SampledResult simulate_sampled(const MachineConfig& cfg, const Trace& trace,
                               const SampleSpec& spec);

// --- sampled-vs-full error reporting ---------------------------------------

/// One compared metric. Counters are compared as per-committed-µop *rates*
/// (raw magnitudes differ by construction: a sampled run measures fewer
/// µops). rel_err uses a 0.01 absolute floor on the denominator so
/// near-zero rates don't explode the report.
struct SampleError {
  std::string metric;
  double full = 0.0;
  double sampled = 0.0;
  double rel_err = 0.0;
};

std::vector<SampleError> sampling_errors(const SimResult& full, const SimResult& sampled);

/// Worst rel_err in the list (0.0 for an empty list).
double max_rel_error(const std::vector<SampleError>& errors);

/// Per-window summary table (index, range, measured µops, IPC, helper%, ...).
std::string render_window_table(const SampledResult& result);

}  // namespace hcsim::sample
