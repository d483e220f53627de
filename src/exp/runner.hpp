// hcsim — parallel sweep execution.
//
// Each ExperimentPoint is a pure function of (trace, machine config), so a
// sweep parallelises trivially: points execute on a fixed-size ThreadPool
// and results land in a pre-sized vector slot keyed by point index. The
// collected SweepResult is therefore bit-identical across thread counts —
// including threads=1, which bypasses the pool entirely (serial fallback).
//
// simulate_cells is the one executor: run_sweep, svc::run_sweep_ft's local
// fallback and the hcsimd service all hand it SweepCells, so all three share
// a cell's generation: an unsampled cached cell's pcs and outcomes, a
// sampled cached cell's trace, or a sampled streamed cell's record-stream
// passes.
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
#include "sample/spec.hpp"

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

/// One trace under one sample spec (`profile` at `n_records` > 0 µops), and
/// the machine configs to run on it.
struct SweepCell {
  WorkloadProfile profile;
  u64 n_records = 0;
  sample::SampleSpec spec;
  std::vector<MachineConfig> configs;
};

/// A sweep's grid as cells, and which point each cell's variants belong to.
struct CellGrid {
  std::vector<SweepCell> cells;
  std::vector<std::vector<u32>> points;  // cells[c].configs[k + 1] is points[c][k]'s variant
};

/// One cell per (workload, seed, length) of `points` (expand(spec)), in grid
/// order, under `sampling`: the baseline, then each point's variant.
CellGrid sweep_cells(const SweepSpec& spec, const std::vector<ExperimentPoint>& points,
                     const sample::SampleSpec& sampling);

/// The most configs one shared pass (sample::simulate_configs) runs: the
/// largest built-in cell, the baseline and the seven variants of
/// cumulative, rv and helper_design. A pass builds a pipeline per config
/// for every window (0.75 MB for the default machine) and an OutcomeModel
/// per distinct outcome key (0.5 MB of Table 1 tag arrays), so the cap
/// bounds a job's memory and length whatever cells a daemon batch brings.
inline constexpr std::size_t kMaxPassConfigs = 8;

/// Simulate every config of every cell on run_batch(threads, pool), jobs in
/// cell order. A sampled cell whose trace is streamed (longer than
/// stream_threshold()) runs ranges of its configs from one pass
/// (sample::simulate_configs), two jobs per thread over all such cells but
/// at most kMaxPassConfigs configs per pass; any other cell runs one job
/// per config. A cached cell (at or below stream_threshold()) is held from
/// its first job's start to its last job's end, so at most threads + 1 are
/// alive. A sampled cached cell holds its trace. An unsampled one holds
/// no record: its first job streams the records from the generator
/// (sample::open_generating_stream) through one outcome model per distinct
/// outcome key of its configs and keeps the program, each record's pc and
/// one 16-bit outcome per record per key (sample::outcome_trace), 4 + 2 ×
/// keys bytes per record, and each job walks its config over those.
/// on_result(c, k, result) runs on the worker that finished config k of
/// cell c, while the cell is held; on_done(c, k), if set, then runs on the
/// calling thread in completion order, and once it returns false,
/// simulations not yet started are skipped and get neither callback.
void simulate_cells(
    const std::vector<SweepCell>& cells, unsigned threads, ThreadPool* pool,
    const std::function<void(std::size_t c, std::size_t k, SimResult&& result)>& on_result,
    const std::function<bool(std::size_t c, std::size_t k)>& on_done = {});

/// Unsampled cached cells held by simulate_cells, for tests: the
/// counterpart of trace_cache_stats() for the cells that hold no trace.
struct CellStats {
  std::size_t live = 0;  // cells whose pcs and outcomes are held now
  u64 built = 0;         // cells built since the process started
};
CellStats cell_stats();

/// `point`'s result from its cell's baseline run and its own, with both
/// power reports: the one place a sweep analyses power.
PointResult make_point(const ExperimentPoint& point, SimResult baseline, SimResult sim,
                       const MachineConfig& baseline_machine);

/// Execute every point of the sweep under the active sample spec
/// (sample::active_sample_spec(), read once at entry): sweep_cells, then
/// simulate_cells, so a cell's baseline is simulated once and shared by its
/// points. A point is reported (on_point) as soon as both its cell's
/// baseline and its own variant are done.
SweepResult run_sweep(const SweepSpec& spec, const RunOptions& opts = {});

}  // namespace hcsim::exp
