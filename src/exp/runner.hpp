// hcsim — parallel sweep execution.
//
// Each ExperimentPoint is a pure function of (trace, machine config), so a
// sweep parallelises trivially: points execute on a fixed-size ThreadPool
// and results land in a pre-sized vector slot keyed by point index. The
// collected SweepResult is therefore bit-identical across thread counts —
// including threads=1, which bypasses the pool entirely (serial fallback).
#pragma once

#include <condition_variable>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

#include "core/sim_result.hpp"
#include "exp/sweep.hpp"
#include "power/power_model.hpp"

namespace hcsim::exp {

/// Fixed-size worker pool. Jobs may be submitted from any thread; wait_idle()
/// blocks until every submitted job has finished.
class ThreadPool {
 public:
  explicit ThreadPool(unsigned n_threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  void submit(std::function<void()> job);
  void wait_idle();
  unsigned size() const { return static_cast<unsigned>(workers_.size()); }

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable work_cv_;   // workers wait for jobs
  std::condition_variable idle_cv_;   // wait_idle() waits for drain
  unsigned in_flight_ = 0;
  bool stopping_ = false;
};

/// A finished experiment point: the variant run, the shared baseline run of
/// the same trace, and the power reports of both.
struct PointResult {
  ExperimentPoint point;
  SimResult baseline;
  SimResult sim;
  PowerReport power_baseline;
  PowerReport power_sim;

  double speedup() const { return sim.speedup_vs(baseline); }
  double perf_increase_pct() const { return (speedup() - 1.0) * 100.0; }
  /// Speedup in wide-cycle counts — invariant to the helper clock ratio, so
  /// it stays meaningful for ablations that change ticks_per_wide_cycle.
  double wide_cycle_speedup() const {
    return sim.wide_cycles > 0.0 ? baseline.wide_cycles / sim.wide_cycles : 0.0;
  }
  double edp_gain_pct() const {
    return power_baseline.edp > 0.0 ? 100.0 * (1.0 - power_sim.edp / power_baseline.edp)
                                    : 0.0;
  }
  double ed2p_gain_pct() const {
    return power_baseline.ed2p > 0.0
               ? 100.0 * (1.0 - power_sim.ed2p / power_baseline.ed2p)
               : 0.0;
  }
};

struct RunOptions {
  /// 0 = std::thread::hardware_concurrency(); 1 = serial (no pool).
  /// Ignored when `pool` is set.
  unsigned threads = 1;
  /// Progress callback, invoked once per finished point (completion order,
  /// serialized — never concurrently). `done` counts finished points.
  std::function<void(const PointResult&, u64 done, u64 total)> on_point;
  /// Cooperative cancellation, polled between jobs (a running job finishes;
  /// a sampled streamed job can cover several points). When it returns
  /// true remaining points are skipped and the result comes back with
  /// `cancelled` set — the daemon wires this to "client still connected?".
  std::function<bool()> cancelled;
  /// Schedule jobs on an existing pool instead of creating one per call.
  /// The sweep only waits for its own jobs, so several run_sweep calls may
  /// share one pool concurrently (hcsimd runs every client's sweeps on a
  /// single process-wide pool). Not owned.
  ThreadPool* pool = nullptr;
};

struct SweepResult {
  std::string sweep;
  unsigned threads_used = 1;
  double wall_seconds = 0.0;
  /// True when RunOptions::cancelled stopped the run early; `points` then
  /// contains default-constructed entries for the skipped points and must
  /// not be reported as a complete sweep.
  bool cancelled = false;
  /// Always in grid-expansion order (point.index), regardless of the order
  /// points finished in.
  std::vector<PointResult> points;
};

/// Execute every point of the sweep. Baseline simulations are shared: one
/// per unique (workload, seed, length) cell, not one per point. Each of a
/// cell's configs (the baseline and every variant) is its own job, except
/// in a sampled sweep (sample::active_sample_spec() enabled) on a streamed
/// trace (longer than stream_threshold()): there a job runs a range of the
/// cell's configs one after another from a single pass over the trace
/// (sample::simulate_configs), with just enough jobs per cell for two per
/// thread.
SweepResult run_sweep(const SweepSpec& spec, const RunOptions& opts = {});

}  // namespace hcsim::exp
