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

/// Fixed-size worker pool running jobs first in, first out. Jobs may be
/// submitted from any thread; run_batch waits for a batch of them.
class ThreadPool {
 public:
  explicit ThreadPool(unsigned n_threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  void submit(std::function<void()> job);
  unsigned size() const { return static_cast<unsigned>(workers_.size()); }

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable work_cv_;  // workers wait for jobs
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
  /// Schedule jobs on an existing pool instead of creating one per call.
  /// The sweep only waits for its own jobs, so several run_sweep calls may
  /// share one pool concurrently. Not owned.
  ThreadPool* pool = nullptr;
};

struct SweepResult {
  std::string sweep;
  unsigned threads_used = 1;
  double wall_seconds = 0.0;
  /// Always in grid-expansion order (point.index), regardless of the order
  /// points finished in.
  std::vector<PointResult> points;
};

/// Run every job of `jobs` and return when all have finished: inline, in
/// order, when `pool` is null and `threads` <= 1; otherwise on `pool`, or on
/// a private pool of `threads` workers when `pool` is null. Jobs must be
/// independent of each other (they may run in any order). `on_done(i)`,
/// when set, runs on the calling thread once job i has finished, in
/// completion order.
///
/// Batches sharing a pool take turns: a batch keeps at most pool->size() of
/// its jobs queued or running, in index order, and each finished job has
/// the batch's next one queued at the back of the pool's queue. A batch
/// that arrives while another runs therefore starts within about one job,
/// and a single batch starts its jobs in index order. With on_done, the
/// calling thread queues the next job as it takes each finished one, just
/// before calling on_done, so on a one-worker pool the results of jobs
/// 0..k-2 have been handed over before job k starts. Waits only for these
/// jobs, so callers may share one pool concurrently.
void run_batch(const std::vector<std::function<void()>>& jobs, unsigned threads,
               ThreadPool* pool, const std::function<void(std::size_t)>& on_done = {});

/// Execute every point of the sweep under the active sample spec
/// (sample::active_sample_spec(), read once at entry). Baseline simulations
/// are shared: one per unique (workload, seed, length) cell, not one per
/// point. Each of a cell's configs (the baseline and every variant) is its
/// own job, except in a sampled sweep on a streamed trace (longer than
/// stream_threshold()): there a job runs a range of the cell's configs one
/// after another from a single pass over the trace
/// (sample::simulate_configs), with just enough jobs per cell for two per
/// thread. Cells run in waves of one per thread, in grid order, and a
/// cell's cached trace is generated once and held from its first job to
/// its last, so at most 2 x threads cached traces are alive at once.
SweepResult run_sweep(const SweepSpec& spec, const RunOptions& opts = {});

}  // namespace hcsim::exp
