// hcsim — shared helpers for the figure/table reproduction benches.
//
// Every bench prints: (1) what the paper reports for this experiment,
// (2) the same rows/series measured on this implementation, (3) a short
// shape-check summary. Absolute numbers need not match the paper (our
// substrate is a simulator, not the authors' proprietary testbed); the
// ordering/factor structure should.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "exp/report.hpp"
#include "exp/runner.hpp"
#include "exp/sweep.hpp"
#include "sim/simulator.hpp"
#include "util/log.hpp"
#include "util/table.hpp"

namespace hcsim::bench {

inline void header(const char* experiment, const char* paper_claim) {
  std::printf("================================================================\n");
  std::printf("%s\n", experiment);
  std::printf("paper: %s\n", paper_claim);
  std::printf("================================================================\n");
}

inline void footer_shape(bool ok, const std::string& what) {
  std::printf("[shape %s] %s\n\n", ok ? "OK" : "DIVERGES", what.c_str());
}

/// Average of per-app values.
inline double avg(const std::vector<double>& v) { return exp::mean(v); }

/// Thread count for sweep-driven benches: HCSIM_SWEEP_THREADS, default all
/// hardware threads (results are thread-count independent; see exp/runner).
inline exp::RunOptions sweep_options() {
  exp::RunOptions opts;
  const unsigned long long threads = env_u64("HCSIM_SWEEP_THREADS", 0);
  HCSIM_CHECK(threads <= 4096, "HCSIM_SWEEP_THREADS out of range");
  opts.threads = static_cast<unsigned>(threads);
  return opts;
}

/// Run a named sweep (exp::find_sweep) on the parallel runner. Aborts if the
/// name is unknown — benches reference registry sweeps by construction.
inline exp::SweepResult run_named_sweep(const std::string& name) {
  auto spec = exp::find_sweep(name);
  HCSIM_CHECK(spec.has_value(), "unknown sweep: " + name);
  return exp::run_sweep(*spec, sweep_options());
}

/// One row per workload of `res` (a sweep of one seed and one length), in
/// grid order: row[i] is that workload's point of variants[i]. Aborts if a
/// workload lacks one of the variants.
inline std::vector<std::vector<const exp::PointResult*>> rows_of(
    const exp::SweepResult& res, const std::vector<std::string>& variants) {
  std::vector<std::vector<const exp::PointResult*>> rows;
  for (const exp::PointResult& pr : res.points) {
    const std::size_t w = pr.point.workload_idx;
    if (w >= rows.size())
      rows.resize(w + 1, std::vector<const exp::PointResult*>(variants.size()));
    for (std::size_t i = 0; i < variants.size(); ++i)
      if (pr.point.variant.name == variants[i]) rows[w][i] = &pr;
  }
  for (const auto& row : rows)
    for (std::size_t i = 0; i < variants.size(); ++i)
      HCSIM_CHECK(row[i] != nullptr, res.sweep + " has no " + variants[i] + " point");
  return rows;
}

}  // namespace hcsim::bench
