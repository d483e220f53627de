// hcsim — sweep aggregation and machine-readable reporting.
//
// Replaces the per-bench hand-rolled loops-and-printf: a finished
// SweepResult aggregates into per-variant summaries (mean/geomean speedup,
// helper occupancy, copy pressure, EDP/ED^2 gains) and serializes to CSV
// (one row per point, stable column order) or JSON (points + summaries +
// run metadata) for offline plotting.
#pragma once

#include <string>
#include <vector>

#include "exp/runner.hpp"

namespace hcsim::exp {

/// Geometric mean; 0.0 for an empty input or any non-positive element.
double geomean(const std::vector<double>& v);

/// Arithmetic mean; 0.0 for an empty input.
double mean(const std::vector<double>& v);

/// Aggregate statistics of every point sharing one ConfigVariant.
struct VariantSummary {
  std::string config;
  u64 n_points = 0;
  double mean_speedup = 0.0;
  double geomean_speedup = 0.0;
  double mean_perf_pct = 0.0;        // (speedup-1)*100, averaged
  double mean_wide_cycle_speedup = 0.0;
  double mean_helper_pct = 0.0;      // % of µops executed in the helper
  double mean_copy_pct = 0.0;        // copies as % of µops
  double mean_edp_gain_pct = 0.0;
  double mean_ed2p_gain_pct = 0.0;
};

/// One summary per variant, in the sweep's variant order.
std::vector<VariantSummary> summarize(const SweepResult& result);

/// CSV with one row per point, in grid order. Deterministic: contains no
/// timing or thread-count metadata, so serial and parallel runs of the same
/// sweep produce byte-identical output.
std::string to_csv(const SweepResult& result);

/// JSON document: {"sweep", "threads", "wall_seconds", "points": [...],
/// "summary": [...]}. The "points" and "summary" arrays are deterministic;
/// the metadata fields describe this particular run.
std::string to_json(const SweepResult& result);

/// Human-readable per-variant summary table (TextTable-rendered).
std::string render_summary(const SweepResult& result);

/// Sampled-vs-full accuracy report: the same sweep run fully and through
/// the src/sample windowed simulator (points matched by grid index), each
/// metric aggregated to its mean full/sampled value and worst per-point
/// relative error. Counter metrics compare per-committed-µop rates; see
/// sample::sampling_errors for the metric list and error definition.
std::string render_sampling_error(const SweepResult& full, const SweepResult& sampled);

/// Worst per-point per-metric relative error between the two runs — the
/// bound CI and tests gate on. Fatal if the sweeps have different shapes.
/// The five counter/stall_* rates are left out of the bound (still
/// rendered): they are per-stage diagnostics that never feed back into
/// timing, and a cold window's extra misses move them far more than any
/// paper metric.
double max_sampling_rel_error(const SweepResult& full, const SweepResult& sampled);

}  // namespace hcsim::exp
