#include "exp/runner.hpp"

#include <chrono>
#include <map>
#include <optional>
#include <tuple>

#include "sample/windowed.hpp"
#include "sim/simulator.hpp"
#include "util/log.hpp"

namespace hcsim::exp {

// --- ThreadPool -------------------------------------------------------------

ThreadPool::ThreadPool(unsigned n_threads) {
  HCSIM_CHECK(n_threads > 0, "ThreadPool needs at least one worker");
  workers_.reserve(n_threads);
  for (unsigned i = 0; i < n_threads; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::submit(std::function<void()> job) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    HCSIM_CHECK(!stopping_, "submit on a stopping ThreadPool");
    queue_.push(std::move(job));
  }
  work_cv_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return queue_.empty() && in_flight_ == 0; });
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      job = std::move(queue_.front());
      queue_.pop();
      ++in_flight_;
    }
    job();
    {
      std::lock_guard<std::mutex> lock(mu_);
      --in_flight_;
      if (queue_.empty() && in_flight_ == 0) idle_cv_.notify_all();
    }
  }
}

// --- run_sweep --------------------------------------------------------------

namespace {

/// Run all jobs: inline when serial, else on `pool` (or a private pool when
/// none was supplied). Each job must be independent of the others (they may
/// run in any order). `cancelled` is polled before each job — queued jobs
/// still drain through their wrapper, they just skip the work.
void run_jobs(std::vector<std::function<void()>>& jobs, unsigned threads,
              ThreadPool* pool, const std::function<bool()>& cancelled) {
  const auto stop = [&cancelled] { return cancelled && cancelled(); };
  if (!pool && threads <= 1) {
    for (auto& job : jobs) {
      if (stop()) return;
      job();
    }
    return;
  }

  // Per-batch latch, NOT ThreadPool::wait_idle: a shared pool may be running
  // other batches' jobs concurrently, and this call must only wait for its
  // own.
  std::mutex mu;
  std::condition_variable cv;
  std::size_t left = jobs.size();
  if (left == 0) return;

  std::optional<ThreadPool> own;
  if (!pool) {
    own.emplace(threads);
    pool = &*own;
  }
  for (auto& job : jobs)
    pool->submit([&, job = std::move(job)] {
      if (!stop()) job();
      std::lock_guard<std::mutex> lock(mu);
      if (--left == 0) cv.notify_all();
    });
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&left] { return left == 0; });
}

}  // namespace

SweepResult run_sweep(const SweepSpec& spec, const RunOptions& opts) {
  const auto t0 = std::chrono::steady_clock::now();

  unsigned threads = opts.threads;
  if (threads == 0) threads = std::max(1u, std::thread::hardware_concurrency());
  if (opts.pool) threads = opts.pool->size();

  const std::vector<ExperimentPoint> points = expand(spec);

  // Cells: one per unique (workload, seed, length) combination. Config 0 of
  // a cell is the baseline, shared by every variant point of the cell;
  // config i > 0 is the variant of the cell's point i - 1.
  struct Cell {
    const WorkloadProfile* profile = nullptr;
    u64 n_records = 0;
    std::vector<const ExperimentPoint*> points;
    std::size_t n_jobs = 0;
    std::vector<SimResult> sims;  // per config, filled by the cell's jobs
    PowerReport power;            // of the baseline
    // Guarded by progress_mu: set once sims[0] and power are final, and the
    // variant configs that finished before that.
    bool baseline_done = false;
    std::vector<std::size_t> waiting;
  };
  std::map<std::tuple<u32, u32, u32>, u32> cell_of;
  std::vector<Cell> cells;
  for (const ExperimentPoint& p : points) {
    const auto key = std::make_tuple(p.workload_idx, p.seed_idx, p.len_idx);
    auto [it, inserted] = cell_of.emplace(key, static_cast<u32>(cells.size()));
    if (inserted) cells.push_back({&p.profile, p.n_records, {}, 0, {}, {}, false, {}});
    cells[it->second].points.push_back(&p);
  }

  // Results land in their index slot, so the collected vector is in grid
  // order no matter the completion order.
  SweepResult result;
  result.sweep = spec.name;
  result.threads_used = threads;
  result.points.resize(points.size());

  std::mutex progress_mu;
  u64 done = 0;
  // Report variant config i of `cell` as its point; the baseline is done.
  const auto finish_point = [&](Cell& cell, std::size_t i) {
    const ExperimentPoint& p = *cell.points[i - 1];
    PointResult pr;
    pr.point = p;
    pr.baseline = cell.sims[0];
    pr.power_baseline = cell.power;
    pr.sim = std::move(cell.sims[i]);
    pr.power_sim = analyze_power(pr.sim, p.variant.machine);
    result.points[p.index] = std::move(pr);
    if (opts.on_point) {
      std::lock_guard<std::mutex> lock(progress_mu);
      ++done;
      opts.on_point(result.points[p.index], done, points.size());
    }
  };

  // Every job simulates a contiguous range of one cell's configs from one
  // pass over the cell's trace. In a sampled sweep, a cell whose trace is
  // streamed (longer than stream_threshold()) shares a pass between configs
  // (sample::simulate_configs): seeking between windows still interprets
  // every skipped record, about 15 per simulated one at paper scale, so
  // generating the trace once per job instead of once per config saves most
  // of the sweep's time. Such a cell's configs are split into just enough
  // jobs that the sweep has two per thread, so a few long cells still fill
  // the pool. Every other cell runs one job per config: a cached trace is
  // already shared through cached_trace(), and a full streamed run spends
  // too little on generation to pay for K pipelines fed in turn (sharing
  // passes, the cached ladder benchmark ran 5% slower with 16% more peak
  // RSS, and a streamed 1M-µop helper_design sweep at 4 threads 25%
  // slower).
  const u64 threshold = stream_threshold();
  const bool sampled = sample::active_sample_spec().enabled();
  const auto shares_pass = [&](const Cell& cell) {
    return sampled && cell.n_records > threshold;
  };
  std::size_t shared = 0;
  for (const Cell& cell : cells) shared += shares_pass(cell);
  const std::size_t shared_jobs = shared ? (2 * threads + shared - 1) / shared : 1;
  std::size_t max_jobs = 0;
  for (Cell& cell : cells) {
    const std::size_t k = cell.points.size() + 1;
    cell.n_jobs = shares_pass(cell) ? std::min(k, shared_jobs) : k;
    cell.sims.resize(k);
    max_jobs = std::max(max_jobs, cell.n_jobs);
  }

  // Job j of every cell is queued before job j + 1 of any, so the baselines
  // (in job 0) run first, each on its own trace, and a variant's point is
  // reported as soon as both its job and its cell's baseline are done.
  std::vector<std::function<void()>> jobs;
  for (std::size_t j = 0; j < max_jobs; ++j)
    for (Cell& cell : cells) {
      if (j >= cell.n_jobs) continue;
      const std::size_t k = cell.sims.size();
      jobs.push_back([&, &cell = cell, lo = j * k / cell.n_jobs,
                      hi = (j + 1) * k / cell.n_jobs] {
        std::vector<MachineConfig> cfgs;
        for (std::size_t i = lo; i < hi; ++i)
          cfgs.push_back(i == 0 ? spec.baseline : cell.points[i - 1]->variant.machine);
        if (cfgs.size() == 1) {
          cell.sims[lo] = simulate_workload(cfgs[0], *cell.profile, cell.n_records);
        } else {
          std::vector<sample::SampledResult> runs = sample::simulate_configs(
              cfgs, *cell.profile, cell.n_records, sample::active_sample_spec());
          for (std::size_t i = lo; i < hi; ++i) cell.sims[i] = std::move(runs[i - lo].total);
        }
        if (lo == 0) cell.power = analyze_power(cell.sims[0], spec.baseline);

        std::vector<std::size_t> ready;
        {
          std::lock_guard<std::mutex> lock(progress_mu);
          if (lo == 0) {
            cell.baseline_done = true;
            ready = std::move(cell.waiting);
          }
          for (std::size_t i = std::max<std::size_t>(lo, 1); i < hi; ++i)
            (cell.baseline_done ? ready : cell.waiting).push_back(i);
        }
        for (std::size_t i : ready) finish_point(cell, i);
      });
    }
  run_jobs(jobs, threads, opts.pool, opts.cancelled);

  result.cancelled = opts.cancelled && opts.cancelled();
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  return result;
}

}  // namespace hcsim::exp
