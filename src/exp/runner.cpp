#include "exp/runner.hpp"

#include <atomic>
#include <chrono>
#include <map>
#include <optional>
#include <span>
#include <tuple>

#include "sample/outcome_pass.hpp"
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

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      job = std::move(queue_.front());
      queue_.pop();
    }
    job();
  }
}

// --- run_batch --------------------------------------------------------------

void run_batch(const std::vector<std::function<void()>>& jobs, unsigned threads,
               ThreadPool* pool, const std::function<void(std::size_t)>& on_done) {
  if (!pool && threads <= 1) {
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      jobs[i]();
      if (on_done) on_done(i);
    }
    return;
  }
  if (jobs.empty()) return;

  std::optional<ThreadPool> own;
  if (!pool) {
    own.emplace(threads);
    pool = &*own;
  }
  // Per-batch state, NOT the pool's: a shared pool may be running other
  // batches' jobs, and this call must only wait for its own.
  std::mutex mu;
  std::condition_variable cv;
  std::vector<std::size_t> finished;  // completion order, not yet handed over
  const std::size_t window = std::min<std::size_t>(pool->size(), jobs.size());
  // The next job to queue. It goes to the back of the pool's queue, behind
  // whatever other batches queued meanwhile: that is the turn-taking. With
  // on_done it is queued by this thread as it takes a finished job (so the
  // results before it are handed over first); without, by the worker that
  // finished one, under `mu`, so the pool never waits on this thread.
  std::size_t next = window;
  std::function<void(std::size_t)> submit = [&](std::size_t i) {
    pool->submit([&, i] {
      jobs[i]();
      std::lock_guard<std::mutex> lock(mu);
      finished.push_back(i);
      if (!on_done && next < jobs.size()) submit(next++);
      cv.notify_all();
    });
  };
  for (std::size_t i = 0; i < window; ++i) submit(i);

  std::vector<std::size_t> ready;
  for (std::size_t handed = 0; handed < jobs.size(); handed += ready.size()) {
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&finished] { return !finished.empty(); });
      ready.swap(finished);
      finished.clear();
    }
    if (!on_done) continue;
    for (std::size_t i : ready) {
      if (next < jobs.size()) submit(next++);
      on_done(i);
    }
  }
}

// --- the executor -----------------------------------------------------------

namespace {

std::atomic<std::size_t> cells_live{0};
std::atomic<u64> cells_built{0};

}  // namespace

CellStats cell_stats() { return {cells_live.load(), cells_built.load()}; }

CellGrid sweep_cells(const SweepSpec& spec, const std::vector<ExperimentPoint>& points,
                     const sample::SampleSpec& sampling) {
  std::map<std::tuple<u32, u32, u32>, std::size_t> cell_of;
  CellGrid grid;
  for (const ExperimentPoint& p : points) {
    const auto key = std::make_tuple(p.workload_idx, p.seed_idx, p.len_idx);
    auto [it, inserted] = cell_of.emplace(key, grid.cells.size());
    if (inserted) {
      grid.cells.push_back({p.profile, p.n_records, sampling, {spec.baseline}});
      grid.points.emplace_back();
    }
    grid.cells[it->second].configs.push_back(p.variant.machine);
    grid.points[it->second].push_back(p.index);
  }
  return grid;
}

void simulate_cells(
    const std::vector<SweepCell>& cells, unsigned threads, ThreadPool* pool,
    const std::function<void(std::size_t c, std::size_t k, SimResult&& result)>& on_result,
    const std::function<bool(std::size_t c, std::size_t k)>& on_done) {
  // A sampled cell whose trace is streamed shares a pass between configs
  // (sample::simulate_configs): seeking between windows still interprets
  // every skipped record, about 15 per simulated one at paper scale, so
  // generating the trace once per job instead of once per config saves most
  // of the time. Such a cell's configs are split into just enough jobs that
  // the call has two per thread, so a few long cells still fill the pool,
  // and into passes of at most kMaxPassConfigs, so a daemon batch of many
  // configs on one trace neither builds a pipeline for each at once nor
  // keeps another batch waiting behind one long job.
  // Every other cell runs one job per config: a cached cell is already
  // shared, and a full streamed run spends too little on generation to pay
  // for K pipelines fed in turn (sharing passes, the cached ladder benchmark
  // ran 5% slower with 16% more peak RSS, and a streamed 1M-µop
  // helper_design sweep at 4 threads 25% slower).
  const u64 threshold = stream_threshold();
  const auto shares_pass = [threshold](const SweepCell& cell) {
    return cell.spec.enabled() && cell.n_records > threshold;
  };
  const std::size_t workers = pool ? pool->size() : std::max(1u, threads);
  std::size_t shared = 0;
  for (const SweepCell& cell : cells) shared += shares_pass(cell);
  const std::size_t shared_jobs = shared ? (2 * workers + shared - 1) / shared : 1;

  // A cached cell's hold: taken by its first job to start, dropped by its
  // last to end. Streamed cells take no hold. A sampled cached cell holds
  // its trace. An unsampled one holds only what its configs' timing walks
  // read, streamed once from the generator through one outcome model per
  // distinct outcome key: per key, each record's outcome, and the pc of
  // each jump. So each config's job is only the timing walk, and no record
  // is kept.
  struct Hold {
    std::once_flag acquired;
    TraceHandle trace;
    std::optional<sample::OutcomeTrace> walk;
    std::atomic<std::size_t> jobs_left{0};
  };
  std::vector<Hold> holds(cells.size());
  struct Job {
    std::size_t c, lo, hi;  // configs [lo, hi) of cells[c]
    bool ran = false;       // read by on_done after run_batch's hand-off
  };
  std::vector<Job> jobs;
  for (std::size_t c = 0; c < cells.size(); ++c) {
    const std::size_t k = cells[c].configs.size();
    const std::size_t n =
        shares_pass(cells[c])
            ? std::max(std::min(k, shared_jobs), (k + kMaxPassConfigs - 1) / kMaxPassConfigs)
            : k;
    for (std::size_t j = 0; j < n; ++j) jobs.push_back({c, j * k / n, (j + 1) * k / n});
    if (cells[c].n_records <= threshold) holds[c].jobs_left = n;
  }

  std::atomic<bool> stop{false};  // on_done returned false: unstarted jobs skip
  std::vector<std::function<void()>> fns;
  for (std::size_t i = 0; i < jobs.size(); ++i)
    fns.push_back([&, i] {
      Job& job = jobs[i];
      const SweepCell& cell = cells[job.c];
      Hold& hold = holds[job.c];
      const bool cached = cell.n_records <= threshold;
      if (!stop.load()) {
        if (cached)
          std::call_once(hold.acquired, [&] {
            if (cell.spec.enabled()) {
              hold.trace = acquire_trace(cell.profile, cell.n_records);
              return;
            }
            hold.walk.emplace(sample::outcome_trace(
                cell.configs, *sample::open_generating_stream(cell.profile, cell.n_records),
                cell.n_records));
            cells_built.fetch_add(1);
            cells_live.fetch_add(1);
          });
        if (cached && !cell.spec.enabled()) {
          Pipeline p(cell.configs[job.lo], hold.walk->program);
          p.feed((*hold.walk)[job.lo], hold.walk->jumps);
          on_result(job.c, job.lo, p.finish());
        } else if (job.hi - job.lo == 1) {
          on_result(job.c, job.lo, simulate_workload(cell.configs[job.lo], cell.profile,
                                                     cell.n_records, cell.spec));
        } else {
          std::vector<sample::SampledResult> runs = sample::simulate_configs(
              std::span<const MachineConfig>(cell.configs).subspan(job.lo, job.hi - job.lo),
              cell.profile, cell.n_records, cell.spec);
          for (std::size_t k = job.lo; k < job.hi; ++k)
            on_result(job.c, k, std::move(runs[k - job.lo].total));
        }
        job.ran = true;
      }
      if (cached && hold.jobs_left.fetch_sub(1) == 1) {
        hold.trace.reset();
        if (hold.walk) cells_live.fetch_sub(1);
        hold.walk.reset();
      }
    });
  std::function<void(std::size_t)> done;
  if (on_done)
    done = [&](std::size_t i) {
      for (std::size_t k = jobs[i].lo; jobs[i].ran && k < jobs[i].hi; ++k)
        if (!on_done(jobs[i].c, k)) stop.store(true);
    };
  run_batch(fns, threads, pool, done);
}

PointResult make_point(const ExperimentPoint& point, SimResult baseline, SimResult sim,
                       const MachineConfig& baseline_machine) {
  PointResult pr;
  pr.point = point;
  pr.power_baseline = analyze_power(baseline, baseline_machine);
  pr.power_sim = analyze_power(sim, point.variant.machine);
  pr.baseline = std::move(baseline);
  pr.sim = std::move(sim);
  return pr;
}

// --- run_sweep --------------------------------------------------------------

SweepResult run_sweep(const SweepSpec& spec, const RunOptions& opts) {
  const auto t0 = std::chrono::steady_clock::now();
  unsigned threads = opts.threads;
  if (threads == 0) threads = std::max(1u, std::thread::hardware_concurrency());
  if (opts.pool) threads = opts.pool->size();

  const std::vector<ExperimentPoint> points = expand(spec);
  const CellGrid grid = sweep_cells(spec, points, sample::active_sample_spec());

  // Results land in their index slot, so the collected vector is in grid
  // order no matter the completion order.
  SweepResult result;
  result.sweep = spec.name;
  result.threads_used = threads;
  result.points.resize(points.size());

  // A point is reported by whichever of its two simulations, its cell's
  // baseline or its own variant (parked in its slot), arrives second.
  std::vector<SimResult> baselines(grid.cells.size());
  std::vector<std::atomic<int>> arrivals_left(points.size());
  for (std::atomic<int>& left : arrivals_left) left.store(2);
  std::mutex progress_mu;
  u64 done = 0;
  const auto arrive = [&](std::size_t c, u32 i) {
    if (arrivals_left[i].fetch_sub(1) != 1) return;
    PointResult& pr = result.points[i];
    pr = make_point(points[i], baselines[c], std::move(pr.sim), spec.baseline);
    if (opts.on_point) {
      std::lock_guard<std::mutex> lock(progress_mu);
      opts.on_point(pr, ++done, points.size());
    }
  };
  simulate_cells(grid.cells, threads, opts.pool,
                 [&](std::size_t c, std::size_t k, SimResult&& sim) {
                   if (k == 0) {
                     baselines[c] = std::move(sim);
                     for (u32 i : grid.points[c]) arrive(c, i);
                   } else {
                     result.points[grid.points[c][k - 1]].sim = std::move(sim);
                     arrive(c, grid.points[c][k - 1]);
                   }
                 });

  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  return result;
}

}  // namespace hcsim::exp
