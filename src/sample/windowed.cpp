#include "sample/windowed.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <span>

#include "sample/outcome_pass.hpp"
#include "sim/simulator.hpp"
#include "util/log.hpp"
#include "util/table.hpp"

namespace hcsim::sample {

namespace {

/// end - start over every integer field of SimResult (strings/derived come
/// from `end`; derived doubles are recomputed by finalize()). Keep in sync
/// with the SimResult field list — see the note in core/sim_result.hpp.
SimResult measured_delta(const Pipeline::StatsCheckpoint& end,
                         const Pipeline::StatsCheckpoint& start) {
  SimResult d = end.res;
  const SimResult& s = start.res;
  d.uops -= s.uops;
  d.final_tick -= s.final_tick;
  d.to_wide -= s.to_wide;
  d.to_helper -= s.to_helper;
  d.br_steered -= s.br_steered;
  d.cr_steered -= s.cr_steered;
  d.split_uops -= s.split_uops;
  d.chunk_uops -= s.chunk_uops;
  d.replicated_loads -= s.replicated_loads;
  d.copies -= s.copies;
  d.copies_w2n -= s.copies_w2n;
  d.copies_n2w -= s.copies_n2w;
  d.copy_prefetches -= s.copy_prefetches;
  d.cp_useful -= s.cp_useful;
  d.copy_wait.subtract(s.copy_wait);
  d.wp_correct -= s.wp_correct;
  d.wp_nonfatal -= s.wp_nonfatal;
  d.wp_fatal -= s.wp_fatal;
  d.cr_violations -= s.cr_violations;
  d.branches -= s.branches;
  d.branch_mispredicts -= s.branch_mispredicts;
  d.nready_w2n -= s.nready_w2n;
  d.nready_n2w -= s.nready_n2w;
  for (std::size_t i = 0; i < kNumCounters; ++i) {
    const Counter c = static_cast<Counter>(i);
    d.counters[c] -= s.counters[c];
  }
  // A prefetch issued during warm-up can be consumed during measure, so the
  // deltas are not ordered; saturate like Pipeline::finish() does.
  d.cp_wasted =
      d.copy_prefetches >= d.cp_useful ? d.copy_prefetches - d.cp_useful : 0;
  return d;
}

/// Splice `w` into `into` (integer fields only; trace order is the caller's
/// responsibility — all additions commute, the order is for determinism of
/// intent, not arithmetic).
void accumulate(SimResult& into, const SimResult& w) {
  into.uops += w.uops;
  into.final_tick += w.final_tick;  // sum of measured commit-tick spans
  into.to_wide += w.to_wide;
  into.to_helper += w.to_helper;
  into.br_steered += w.br_steered;
  into.cr_steered += w.cr_steered;
  into.split_uops += w.split_uops;
  into.chunk_uops += w.chunk_uops;
  into.replicated_loads += w.replicated_loads;
  into.copies += w.copies;
  into.copies_w2n += w.copies_w2n;
  into.copies_n2w += w.copies_n2w;
  into.copy_prefetches += w.copy_prefetches;
  into.cp_useful += w.cp_useful;
  into.copy_wait.merge(w.copy_wait);
  into.wp_correct += w.wp_correct;
  into.wp_nonfatal += w.wp_nonfatal;
  into.wp_fatal += w.wp_fatal;
  into.cr_violations += w.cr_violations;
  into.branches += w.branches;
  into.branch_mispredicts += w.branch_mispredicts;
  into.nready_w2n += w.nready_w2n;
  into.nready_n2w += w.nready_n2w;
  for (std::size_t i = 0; i < kNumCounters; ++i) {
    const Counter c = static_cast<Counter>(i);
    into.counters[c] += w.counters[c];
  }
  into.cp_wasted = into.copy_prefetches >= into.cp_useful
                       ? into.copy_prefetches - into.cp_useful
                       : 0;
}

/// Derive the double-valued statistics from spliced integer totals, the way
/// Pipeline::finish() does for a full run.
void finalize(SimResult& r, Tick wide_ticks, u64 dl0_hits, u64 dl0_accesses,
              u64 ul1_hits, u64 ul1_accesses) {
  r.wide_cycles = static_cast<double>(r.final_tick) / static_cast<double>(wide_ticks);
  r.ipc = r.wide_cycles > 0 ? static_cast<double>(r.uops) / r.wide_cycles : 0.0;
  r.dl0_hit_rate = dl0_accesses
                       ? static_cast<double>(dl0_hits) / static_cast<double>(dl0_accesses)
                       : 0.0;
  r.ul1_hit_rate = ul1_accesses
                       ? static_cast<double>(ul1_hits) / static_cast<double>(ul1_accesses)
                       : 0.0;
  r.counters[Counter::kDl0Accesses] = dl0_accesses;
  r.counters[Counter::kUl1Accesses] = ul1_accesses;
}

/// Cold pipelines, one per config, bound to one program and fed the same
/// record spans, through an OutcomePass whose models' outcomes every
/// pipeline with that key walks.
class PipelineGroup {
 public:
  PipelineGroup(std::span<const MachineConfig> cfgs, const Program& program)
      : pass_(cfgs, program) {
    pipes_.reserve(cfgs.size());
    for (const MachineConfig& cfg : cfgs) pipes_.push_back(std::make_unique<Pipeline>(cfg, program));
  }

  /// Feed records [begin, end) of `stream` to every pipeline (fewer when
  /// the trace ends first).
  void pull(RecordStream& stream, u64 begin, u64 end) {
    pass_.pull(stream, begin, end, [this] {
      for (std::size_t k = 0; k < pipes_.size(); ++k)
        pipes_[k]->feed(pass_.outcomes(pass_.key_of(k)), pass_.jumps());
    });
  }

  /// Records fed so far.
  u64 fed() const { return pass_.fed(); }
  Pipeline& operator[](std::size_t k) { return *pipes_[k]; }

 private:
  OutcomePass pass_;
  std::vector<std::unique_ptr<Pipeline>> pipes_;  // Pipeline is not movable
};

/// Simulate window `w` of `stream` on a cold pipeline per config, with a
/// stats checkpoint at the warm-up/measure boundary. Returns each config's
/// measured window, or nothing when the trace ended before the window's
/// measure region began (the same for every config: all see the same
/// records).
std::vector<WindowStats> simulate_window(std::span<const MachineConfig> cfgs,
                                         RecordStream& stream, const WindowRange& w) {
  PipelineGroup group(cfgs, stream.program());
  group.pull(stream, w.begin, w.measure_begin());
  if (group.fed() < w.warmup) return {};
  std::vector<Pipeline::StatsCheckpoint> warm;
  for (std::size_t k = 0; k < cfgs.size(); ++k) warm.push_back(group[k].checkpoint_stats());
  group.pull(stream, w.measure_begin(), w.end());
  const u64 measured = group.fed() - w.warmup;  // short when the trace ended early
  if (measured == 0) return {};

  std::vector<WindowStats> out(cfgs.size());
  for (std::size_t k = 0; k < cfgs.size(); ++k) {
    const Pipeline::StatsCheckpoint end = group[k].checkpoint_stats();
    WindowStats& s = out[k];
    s.range = w;
    s.range.measure = measured;
    s.measured = measured_delta(end, warm[k]);
    s.dl0_hits = end.dl0_hits - warm[k].dl0_hits;
    s.dl0_accesses = end.dl0_accesses - warm[k].dl0_accesses;
    s.ul1_hits = end.ul1_hits - warm[k].ul1_hits;
    s.ul1_accesses = end.ul1_accesses - warm[k].ul1_accesses;
    finalize(s.measured, cfgs[k].ticks_per_wide_cycle, s.dl0_hits, s.dl0_accesses,
             s.ul1_hits, s.ul1_accesses);
  }
  return out;
}

/// Full (unsampled) runs of every config over one stream: what a disabled
/// spec asks for, and the fallback when the plan has no window or the trace
/// ended before the first measure region.
std::vector<SampledResult> full_runs(std::span<const MachineConfig> cfgs,
                                     const SampleSpec& spec, const StreamFactory& factory,
                                     u64 trace_len) {
  const std::unique_ptr<RecordStream> stream = factory();
  PipelineGroup group(cfgs, stream->program());
  group.pull(*stream, 0, trace_len);
  std::vector<SampledResult> out(cfgs.size());
  for (std::size_t k = 0; k < cfgs.size(); ++k) {
    out[k].spec = spec;
    out[k].trace_len = trace_len;
    out[k].total = group[k].finish();
    out[k].simulated_uops = out[k].measured_uops = out[k].total.uops;
  }
  return out;
}

/// Splice one config's measured windows (trace order, at least one) into
/// its sampled result.
SampledResult splice(const SampleSpec& spec, u64 trace_len, Tick wide_ticks,
                     std::vector<WindowStats> windows) {
  SampledResult result;
  result.spec = spec;
  result.trace_len = trace_len;
  result.sampled = true;
  result.total = windows.front().measured;  // adopts workload/config strings
  u64 dl0_hits = 0, dl0_accesses = 0, ul1_hits = 0, ul1_accesses = 0;
  for (std::size_t i = 0; i < windows.size(); ++i) {
    const WindowStats& w = windows[i];
    if (i > 0) accumulate(result.total, w.measured);
    dl0_hits += w.dl0_hits;
    dl0_accesses += w.dl0_accesses;
    ul1_hits += w.ul1_hits;
    ul1_accesses += w.ul1_accesses;
    result.measured_uops += w.measured.uops;
    result.simulated_uops += w.range.warmup + w.measured.uops;
  }
  finalize(result.total, wide_ticks, dl0_hits, dl0_accesses, ul1_hits, ul1_accesses);
  result.windows = std::move(windows);
  return result;
}

}  // namespace

std::vector<SampledResult> simulate_configs(std::span<const MachineConfig> cfgs,
                                            const StreamFactory& factory, u64 trace_len,
                                            const SampleSpec& spec) {
  HCSIM_CHECK(!cfgs.empty(), "simulate_configs: no machine config");
  const std::vector<WindowRange> plan = plan_windows(spec, trace_len);
  // Trace too short to sample (or sampling disabled): full run.
  if (plan.empty()) return full_runs(cfgs, spec, factory, trace_len);

  std::vector<std::vector<WindowStats>> windows(cfgs.size());  // per config
  {
    const std::unique_ptr<RecordStream> stream = factory();
    for (const WindowRange& w : plan) {
      std::vector<WindowStats> measured = simulate_window(cfgs, *stream, w);
      if (measured.empty()) break;  // the trace ended before this window
      const bool ended = measured.front().range.measure < w.measure;
      for (std::size_t k = 0; k < cfgs.size(); ++k)
        windows[k].push_back(std::move(measured[k]));
      if (ended) break;  // ... or inside it
    }
  }
  // The trace ended during the first window's warm-up (e.g. a kernel
  // halting almost immediately): no measured window exists, fall back.
  if (windows.front().empty()) return full_runs(cfgs, spec, factory, trace_len);

  std::vector<SampledResult> out;
  out.reserve(cfgs.size());
  for (std::size_t k = 0; k < cfgs.size(); ++k)
    out.push_back(
        splice(spec, trace_len, cfgs[k].ticks_per_wide_cycle, std::move(windows[k])));
  return out;
}

std::vector<SampledResult> simulate_configs(std::span<const MachineConfig> cfgs,
                                            const WorkloadProfile& profile, u64 n_records,
                                            const SampleSpec& spec) {
  if (n_records == 0) n_records = default_trace_len();
  return simulate_configs(cfgs, workload_stream_factory(profile, n_records), n_records, spec);
}

WindowedSimulator::WindowedSimulator(const MachineConfig& cfg, const SampleSpec& spec)
    : cfg_(cfg), spec_(spec) {
  spec_.validate();
}

SampledResult WindowedSimulator::run(const StreamFactory& factory, u64 trace_len,
                                     unsigned /*threads*/) const {
  return simulate_configs(std::span<const MachineConfig>(&cfg_, 1), factory, trace_len, spec_)
      .front();
}

SampledResult simulate_sampled(const MachineConfig& cfg, const WorkloadProfile& profile,
                               u64 n_records, const SampleSpec& spec) {
  return simulate_configs(std::span<const MachineConfig>(&cfg, 1), profile, n_records, spec)
      .front();
}

SampledResult simulate_sampled(const MachineConfig& cfg, const Trace& trace,
                               const SampleSpec& spec) {
  return simulate_configs(std::span<const MachineConfig>(&cfg, 1),
                          [&trace] { return open_trace_stream(trace); },
                          trace.records.size(), spec)
      .front();
}

// --- sampled-vs-full error reporting ----------------------------------------

std::vector<SampleError> sampling_errors(const SimResult& full, const SimResult& sampled) {
  std::vector<SampleError> out;
  const auto add = [&out](std::string metric, double f, double s) {
    SampleError e;
    e.metric = std::move(metric);
    e.full = f;
    e.sampled = s;
    e.rel_err = std::abs(s - f) / std::max(std::abs(f), 0.01);
    out.push_back(std::move(e));
  };
  add("ipc", full.ipc, sampled.ipc);
  add("helper_frac", full.helper_frac(), sampled.helper_frac());
  add("copy_frac", full.copy_frac(), sampled.copy_frac());
  add("wp_accuracy", full.wp_accuracy(), sampled.wp_accuracy());
  const auto misp = [](const SimResult& r) {
    return r.branches ? static_cast<double>(r.branch_mispredicts) /
                            static_cast<double>(r.branches)
                      : 0.0;
  };
  add("branch_misp_rate", misp(full), misp(sampled));
  add("dl0_hit_rate", full.dl0_hit_rate, sampled.dl0_hit_rate);
  add("ul1_hit_rate", full.ul1_hit_rate, sampled.ul1_hit_rate);
  // Raw event counters as per-committed-µop rates.
  const auto rate = [](const SimResult& r, Counter c) {
    return r.uops ? static_cast<double>(r.counters[c]) / static_cast<double>(r.uops)
                  : 0.0;
  };
  for (std::size_t i = 0; i < kNumCounters; ++i) {
    const Counter c = static_cast<Counter>(i);
    add("counter/" + std::string(counter_name(c)), rate(full, c), rate(sampled, c));
  }
  return out;
}

double max_rel_error(const std::vector<SampleError>& errors) {
  double worst = 0.0;
  for (const SampleError& e : errors) worst = std::max(worst, e.rel_err);
  return worst;
}

std::string render_window_table(const SampledResult& result) {
  TextTable t({"window", "begin", "warmup", "measured", "ipc", "helper %", "copy %",
               "dl0 hit %"});
  for (const WindowStats& w : result.windows) {
    t.add_row({std::to_string(w.range.index), std::to_string(w.range.begin),
               std::to_string(w.range.warmup), std::to_string(w.measured.uops),
               TextTable::num(w.measured.ipc, 3),
               TextTable::num(100.0 * w.measured.helper_frac(), 1),
               TextTable::num(100.0 * w.measured.copy_frac(), 1),
               TextTable::num(100.0 * w.measured.dl0_hit_rate, 1)});
  }
  return t.render();
}

}  // namespace hcsim::sample
