// Tests for the experiment-orchestration subsystem (src/exp/): grid
// expansion, the thread pool and run_batch's turn-taking,
// parallel-vs-serial result determinism, and
// the CSV/JSON report emitters.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <mutex>
#include <set>
#include <string>
#include <thread>

#include "exp/report.hpp"
#include "exp/runner.hpp"
#include "exp/sweep.hpp"
#include "expect_result.hpp"
#include "sample/spec.hpp"
#include "scoped_env.hpp"
#include "sim/simulator.hpp"

namespace hcsim::exp {
namespace {

SweepSpec tiny_sweep() {
  SweepSpec s;
  s.name = "tiny";
  s.workloads = {spec_profile("gcc"), spec_profile("gzip")};
  s.variants = {variant_from_steering(steering_888()),
                variant_from_steering(steering_888_br_lr_cr())};
  s.trace_lens = {4000};
  return s;
}

// --- grid expansion ---------------------------------------------------------

TEST(Sweep, ExpansionCountMatchesGrid) {
  SweepSpec s = tiny_sweep();
  s.seeds = {7, 11, 13};
  s.trace_lens = {2000, 4000};
  EXPECT_EQ(s.num_points(), 2u * 2u * 3u * 2u);
  const auto points = expand(s);
  EXPECT_EQ(points.size(), s.num_points());
}

TEST(Sweep, ExpansionIsWorkloadMajorAndIndexed) {
  SweepSpec s = tiny_sweep();
  s.seeds = {7, 11};
  const auto points = expand(s);
  ASSERT_EQ(points.size(), 8u);
  for (u32 i = 0; i < points.size(); ++i) EXPECT_EQ(points[i].index, i);
  // workload-major, then variant, then seed.
  EXPECT_EQ(points[0].profile.name, "gcc");
  EXPECT_EQ(points[0].variant.name, "8_8_8");
  EXPECT_EQ(points[0].profile.seed, 7u);
  EXPECT_EQ(points[1].profile.seed, 11u);
  EXPECT_EQ(points[2].variant.name, "8_8_8+BR+LR+CR");
  EXPECT_EQ(points[4].profile.name, "gzip");
  EXPECT_EQ(points[7].profile.name, "gzip");
  EXPECT_EQ(points[7].variant.name, "8_8_8+BR+LR+CR");
  EXPECT_EQ(points[7].profile.seed, 11u);
}

TEST(Sweep, EmptyDimensionsDefaultToOnePoint) {
  SweepSpec s = tiny_sweep();
  s.trace_lens.clear();  // -> default_trace_len()
  const auto points = expand(s);
  ASSERT_EQ(points.size(), 4u);
  for (const auto& p : points) {
    EXPECT_EQ(p.n_records, default_trace_len());
    // seed 0 placeholder keeps the profile's own seed.
    EXPECT_EQ(p.profile.seed, spec_profile(p.profile.name).seed);
  }
}

TEST(Sweep, NamedSweepsResolve) {
  for (const std::string& name : sweep_names()) {
    const auto spec = find_sweep(name);
    ASSERT_TRUE(spec.has_value()) << name;
    EXPECT_EQ(spec->name, name);
    EXPECT_GT(spec->num_points(), 0u) << name;
  }
  EXPECT_FALSE(find_sweep("no-such-sweep").has_value());
  EXPECT_EQ(find_sweep("fig06")->num_points(), 12u);
  EXPECT_EQ(find_sweep("cumulative")->num_points(), 84u);
}

TEST(Sweep, BaselineVariantIsMonolithic) {
  const ConfigVariant v = variant_from_steering(steering_baseline());
  EXPECT_EQ(v.name, "baseline");
  EXPECT_FALSE(v.machine.steer.helper_enabled);
  const ConfigVariant h = variant_from_steering(steering_888());
  EXPECT_TRUE(h.machine.steer.helper_enabled);
  EXPECT_EQ(h.name, "8_8_8");
}

// --- ThreadPool and run_batch ----------------------------------------------

TEST(ThreadPool, RunsEverySubmittedJob) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::atomic<int> count{0};
  const std::vector<std::function<void()>> jobs(100, [&count] { ++count; });
  run_batch(jobs, 0, &pool);
  EXPECT_EQ(count.load(), 100);
}

TEST(Runner, OnDoneRunsOnTheCallerOncePerJob) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  const std::vector<std::function<void()>> jobs(20, [&ran] { ++ran; });
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<int> seen(jobs.size(), 0);
  bool on_caller = true;
  run_batch(jobs, 0, &pool, [&](std::size_t i) {
    on_caller = on_caller && std::this_thread::get_id() == caller;
    ++seen.at(i);
  });
  EXPECT_TRUE(on_caller);
  EXPECT_EQ(ran.load(), 20);  // each job once
  EXPECT_EQ(seen, std::vector<int>(jobs.size(), 1));

  // On a one-worker pool a job starts only after the results of all jobs
  // but the one just before it were handed over.
  ThreadPool one(1);
  std::atomic<std::size_t> handed{0};
  std::vector<std::size_t> handed_at_start(jobs.size());
  std::vector<std::function<void()>> ordered;
  for (std::size_t i = 0; i < jobs.size(); ++i)
    ordered.push_back([&, i] { handed_at_start[i] = handed.load(); });
  run_batch(ordered, 0, &one, [&handed](std::size_t) { ++handed; });
  for (std::size_t i = 1; i < jobs.size(); ++i) EXPECT_GE(handed_at_start[i], i - 1) << i;

  // Inline (no pool, one thread): every job, in order.
  std::vector<std::size_t> order;
  run_batch(jobs, 1, nullptr, [&order](std::size_t i) { order.push_back(i); });
  ASSERT_EQ(order.size(), jobs.size());
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(Runner, BatchesSharingAPoolTakeTurns) {
  // Two batches on a one-worker pool, the second sent while the first runs.
  // Each keeps one job queued or running, and each finished job queues its
  // batch's next one behind the other batch's: after the second batch's
  // first job, the two alternate until the shorter one ends.
  ThreadPool pool(1);
  std::mutex mu;
  std::string order;  // one letter per job, in the order they ran
  std::atomic<bool> a_running{false}, b_sent{false};
  const auto job = [&](char batch) {
    return [&, batch] {
      {
        std::lock_guard<std::mutex> lock(mu);
        order.push_back(batch);
      }
      // Hold the first batch until the second is about to be sent.
      a_running.store(true);
      while (!b_sent.load()) std::this_thread::yield();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    };
  };
  const std::vector<std::function<void()>> a(20, job('a')), b(10, job('b'));
  std::thread first([&] { run_batch(a, 0, &pool); });
  while (!a_running.load()) std::this_thread::yield();
  b_sent.store(true);
  run_batch(b, 0, &pool);
  first.join();
  ASSERT_EQ(order.size(), a.size() + b.size());
  const std::size_t k = order.find('b');
  ASSERT_NE(k, std::string::npos);
  EXPECT_EQ(order.substr(k, 19), "bababababababababab") << order;
}

// --- runner determinism -----------------------------------------------------

void expect_same_results(const SweepResult& a, const SweepResult& b) {
  ASSERT_EQ(a.points.size(), b.points.size());
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    const PointResult& pa = a.points[i];
    const PointResult& pb = b.points[i];
    EXPECT_EQ(pa.point.index, pb.point.index);
    EXPECT_EQ(pa.point.profile.name, pb.point.profile.name);
    EXPECT_EQ(pa.point.variant.name, pb.point.variant.name);
    EXPECT_EQ(pa.sim.final_tick, pb.sim.final_tick);
    EXPECT_EQ(pa.sim.uops, pb.sim.uops);
    EXPECT_EQ(pa.sim.to_helper, pb.sim.to_helper);
    EXPECT_EQ(pa.sim.copies, pb.sim.copies);
    EXPECT_EQ(pa.baseline.final_tick, pb.baseline.final_tick);
    EXPECT_DOUBLE_EQ(pa.power_sim.energy, pb.power_sim.energy);
    EXPECT_DOUBLE_EQ(pa.speedup(), pb.speedup());
  }
}

TEST(Runner, ParallelMatchesSerialAcrossThreadCounts) {
  const SweepSpec spec = tiny_sweep();
  RunOptions serial;
  serial.threads = 1;
  const SweepResult base = run_sweep(spec, serial);
  EXPECT_EQ(base.threads_used, 1u);
  for (unsigned threads : {2u, 4u, 8u}) {
    RunOptions par;
    par.threads = threads;
    const SweepResult r = run_sweep(spec, par);
    EXPECT_EQ(r.threads_used, threads);
    expect_same_results(base, r);
    // The full machine-readable reports must be byte-identical too.
    EXPECT_EQ(to_csv(base), to_csv(r));
  }
}

TEST(Runner, ProgressCallbackSeesEveryPointExactlyOnce) {
  const SweepSpec spec = tiny_sweep();
  RunOptions opts;
  opts.threads = 4;
  std::set<u32> seen;
  u64 last_total = 0, calls = 0;
  opts.on_point = [&](const PointResult& pr, u64 done, u64 total) {
    // Called under the runner's progress lock, so no synchronization needed.
    seen.insert(pr.point.index);
    ++calls;
    EXPECT_EQ(done, calls);  // done counts monotonically
    last_total = total;
  };
  const SweepResult r = run_sweep(spec, opts);
  EXPECT_EQ(calls, r.points.size());
  EXPECT_EQ(seen.size(), r.points.size());
  EXPECT_EQ(last_total, r.points.size());
}

TEST(Runner, BaselineSharedAcrossVariantsOfOneApp) {
  const SweepResult r = run_sweep(tiny_sweep(), {});
  ASSERT_EQ(r.points.size(), 4u);
  // Same app, different variants -> identical baseline runs.
  EXPECT_EQ(r.points[0].baseline.final_tick, r.points[1].baseline.final_tick);
  EXPECT_EQ(r.points[2].baseline.final_tick, r.points[3].baseline.final_tick);
  // Sim results carry the steering scheme's config name.
  EXPECT_EQ(r.points[0].sim.config, "8_8_8");
  EXPECT_EQ(r.points[1].sim.config, "8_8_8+BR+LR+CR");
  EXPECT_EQ(r.points[0].baseline.config, "baseline");
}

TEST(Runner, SweepHoldsAtMostThreadsPlusOneTraces) {
  // The cumulative ladder: 12 unsampled cached cells of 8 configs. Each
  // cell's outcomes and jumps are streamed from the generator once and held
  // from its first job to its last, and jobs start in order with at most
  // one per thread running, so only the cells of running jobs and the cell
  // whose jobs have started but not all of them are held; none is left
  // after the sweep, so the same sweep again builds every cell again. No
  // cell takes a trace from the trace cache.
  SweepSpec spec = *find_sweep("cumulative");
  spec.trace_lens = {3001};  // a length no other test pins
  constexpr unsigned kThreads = 4;
  RunOptions opts;
  opts.threads = kThreads;
  std::size_t most_live = 0;
  opts.on_point = [&](const PointResult&, u64, u64) {
    most_live = std::max(most_live, cell_stats().live);
  };
  for (int run = 0; run < 2; ++run) {
    const u64 built = cell_stats().built;
    const u64 generated = trace_cache_stats().generated;
    const SweepResult r = run_sweep(spec, opts);
    EXPECT_EQ(r.points.size(), 12u * 7u);
    EXPECT_GE(most_live, 1u) << run;
    EXPECT_LE(most_live, kThreads + 1) << run;
    EXPECT_EQ(cell_stats().live, 0u) << run;
    EXPECT_EQ(cell_stats().built - built, 12u) << run;
    EXPECT_EQ(trace_cache_stats().generated, generated) << run;
    EXPECT_EQ(trace_cache_stats().live, 0u) << run;
  }
}

TEST(Runner, SimulateCellsHoldsEachCellsTraceFromItsFirstJobToItsLast) {
  // One thread runs the jobs one after another: an unsampled cached cell,
  // a sampled cell above the (lowered) stream threshold, and a sampled
  // cached cell. While the first cell's results arrive, its outcomes and
  // jumps and no trace are held; the streamed cell reads the generator
  // and holds nothing; while the last cell's results arrive, its trace and
  // no other is live.
  const ScopedEnv threshold("HCSIM_STREAM_THRESHOLD", "5000");
  sample::SampleSpec sampled;
  sampled.warmup = 500;
  sampled.measure = 1000;
  sampled.period = 2000;
  const std::vector<MachineConfig> configs = {
      monolithic_baseline(), helper_machine(steering_888()), helper_machine(steering_ir())};
  WorkloadProfile a = spec_profile("bzip2"), b = spec_profile("bzip2");
  a.seed = 4205;  // seeds no other test pins
  b.seed = 4206;
  const std::vector<SweepCell> cells = {
      {a, 2500, {}, configs}, {a, 6000, sampled, configs}, {b, 2500, sampled, configs}};
  // Worked out first: simulate_workload takes a trace of its own.
  std::vector<std::vector<SimResult>> want(cells.size());
  for (std::size_t c = 0; c < cells.size(); ++c)
    for (const MachineConfig& cfg : cells[c].configs)
      want[c].push_back(simulate_workload(cfg, cells[c].profile, cells[c].n_records,
                                          cells[c].spec));
  const u64 generated = trace_cache_stats().generated;
  const u64 built = cell_stats().built;
  std::vector<std::size_t> results(cells.size(), 0);
  simulate_cells(cells, 1, nullptr, [&](std::size_t c, std::size_t k, SimResult&& r) {
    EXPECT_EQ(result_difference(r, want[c][k]), "") << c << "/" << k;
    ++results[c];
    EXPECT_EQ(cell_stats().live, c == 0 ? 1u : 0u) << c << "/" << k;
    EXPECT_EQ(trace_cache_stats().live, c == 2 ? 1u : 0u) << c << "/" << k;
    if (c != 2) return;
    // The live trace is this cell's: acquiring it generates nothing.
    const u64 before = trace_cache_stats().generated;
    acquire_trace(cells[c].profile, cells[c].n_records);
    EXPECT_EQ(trace_cache_stats().generated, before) << c << "/" << k;
  });
  EXPECT_EQ(results, std::vector<std::size_t>(cells.size(), configs.size()));
  EXPECT_EQ(cell_stats().built - built, 1u);
  EXPECT_EQ(trace_cache_stats().generated - generated, 1u);
  EXPECT_EQ(cell_stats().live, 0u);
  EXPECT_EQ(trace_cache_stats().live, 0u);
}

TEST(Runner, SharedPassesTakeAtMostKMaxPassConfigs) {
  // One sampled streamed cell of 2 x kMaxPassConfigs + 3 configs, run
  // inline: two jobs per thread would make passes of 9 and 10 configs, and
  // the cap makes three of 6, 6 and 7. Inline, a job's results all arrive
  // (on_result) before they are handed over (on_done), so the runs of
  // on_result calls between hand-overs are the passes.
  const ScopedEnv threshold("HCSIM_STREAM_THRESHOLD", "1000");
  sample::SampleSpec sampled;
  sampled.warmup = 500;
  sampled.measure = 1000;
  sampled.period = 2000;
  const std::vector<MachineConfig> kinds = {
      monolithic_baseline(), helper_machine(steering_888()), helper_machine(steering_ir())};
  SweepCell cell{spec_profile("gcc"), 6000, sampled, {}};
  for (std::size_t k = 0; k < 2 * kMaxPassConfigs + 3; ++k)
    cell.configs.push_back(kinds[k % kinds.size()]);
  std::vector<SimResult> want;
  for (const MachineConfig& cfg : kinds)
    want.push_back(simulate_workload(cfg, cell.profile, cell.n_records, sampled));

  std::vector<std::size_t> passes = {0};  // configs per pass; the last is open
  std::size_t handed = 0;
  simulate_cells(
      {cell}, 1, nullptr,
      [&](std::size_t, std::size_t k, SimResult&& r) {
        EXPECT_EQ(r.final_tick, want[k % kinds.size()].final_tick) << k;
        EXPECT_EQ(r.uops, want[k % kinds.size()].uops) << k;
        ++passes.back();
      },
      [&](std::size_t, std::size_t k) {
        EXPECT_EQ(k, handed++);
        if (passes.back() > 0) passes.push_back(0);
        return true;
      });
  passes.pop_back();
  EXPECT_EQ(handed, cell.configs.size());
  EXPECT_EQ(passes, (std::vector<std::size_t>{6, 6, 7}));
}

TEST(Runner, CellPassMatchesPerPointRuns) {
  // Above a lowered stream threshold a sampled sweep feeds several configs
  // of a cell from one record stream: the generator for fig12 (12 cells of
  // 3 configs) and the RV kernel for rv (8 cells of 8). Thread counts 1-16
  // split a cell's configs over 1, 2, 3 or 4 jobs; an unsampled sweep runs
  // one job per config. Either way the CSV must equal the one assembled
  // from separate simulate_workload calls per cell baseline and per point.
  const ScopedEnv threshold("HCSIM_STREAM_THRESHOLD", "1000");
  sample::SampleSpec sampling;
  sampling.warmup = 500;
  sampling.measure = 1500;
  sampling.period = 4000;

  for (const sample::SampleSpec& active : {sample::SampleSpec{}, sampling}) {
    SCOPED_TRACE(active.enabled() ? "sampled" : "full");
    sample::set_active_sample_spec(active);
    for (const char* name : {"fig12", "rv"}) {
      SCOPED_TRACE(name);
      SweepSpec spec = *find_sweep(name);
      spec.trace_lens = {12000};
      SweepResult per_point;
      for (const ExperimentPoint& p : expand(spec)) {
        PointResult pr;
        pr.point = p;
        pr.baseline = simulate_workload(spec.baseline, p.profile, p.n_records, active);
        pr.sim = simulate_workload(p.variant.machine, p.profile, p.n_records, active);
        pr.power_baseline = analyze_power(pr.baseline, spec.baseline);
        pr.power_sim = analyze_power(pr.sim, p.variant.machine);
        per_point.points.push_back(std::move(pr));
      }
      const std::string want = to_csv(per_point);
      for (unsigned threads : {1u, 4u, 8u, 16u}) {
        RunOptions opts;
        opts.threads = threads;
        std::set<u32> seen;
        u64 calls = 0;
        opts.on_point = [&](const PointResult& pr, u64 done, u64 total) {
          seen.insert(pr.point.index);
          EXPECT_EQ(done, ++calls);
          EXPECT_EQ(total, per_point.points.size());
        };
        const SweepResult r = run_sweep(spec, opts);
        EXPECT_EQ(to_csv(r), want) << threads << " threads";
        EXPECT_EQ(calls, per_point.points.size());
        EXPECT_EQ(seen.size(), per_point.points.size());
      }
    }
  }

  sample::set_active_sample_spec(sample::SampleSpec{});
}

TEST(Runner, CachedCellSharesOutcomesAcrossItsConfigs) {
  // An unsampled cached cell streams one outcome array per distinct outcome
  // key beside its pcs; helper_design's helper widths 4, 8 and 16 give its
  // configs three keys. On 4 threads every config must still get the
  // result of a private run.
  const SweepSpec design = *find_sweep("helper_design");
  SweepCell cell{spec_profile("gcc"), 20000, sample::SampleSpec{}, {design.baseline}};
  for (const ConfigVariant& v : design.variants) cell.configs.push_back(v.machine);
  std::vector<SimResult> shared(cell.configs.size());
  simulate_cells({cell}, 4, nullptr,
                 [&](std::size_t, std::size_t k, SimResult&& r) { shared[k] = std::move(r); });
  const TraceHandle trace = acquire_trace(cell.profile, cell.n_records);
  for (std::size_t k = 0; k < cell.configs.size(); ++k)
    EXPECT_EQ(result_difference(shared[k], simulate(cell.configs[k], *trace)), "")
        << "config " << k;
}

// --- reporting --------------------------------------------------------------

TEST(Report, GeomeanAndMean) {
  EXPECT_DOUBLE_EQ(geomean({4.0, 9.0}), 6.0);
  EXPECT_DOUBLE_EQ(geomean({2.0, 2.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(geomean({}), 0.0);
  EXPECT_DOUBLE_EQ(geomean({1.0, 0.0}), 0.0);  // non-positive input
  EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 3.0}), 2.0);
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
}

TEST(Report, SummaryGroupsByVariantInOrder) {
  const SweepResult r = run_sweep(tiny_sweep(), {});
  const auto summaries = summarize(r);
  ASSERT_EQ(summaries.size(), 2u);
  EXPECT_EQ(summaries[0].config, "8_8_8");
  EXPECT_EQ(summaries[1].config, "8_8_8+BR+LR+CR");
  EXPECT_EQ(summaries[0].n_points, 2u);
  EXPECT_EQ(summaries[1].n_points, 2u);
  EXPECT_GT(summaries[0].geomean_speedup, 0.0);
  // Hand-check one aggregate.
  const double expected =
      geomean({r.points[0].speedup(), r.points[2].speedup()});
  EXPECT_DOUBLE_EQ(summaries[0].geomean_speedup, expected);
}

TEST(Report, CsvShapeAndHeader) {
  const SweepResult r = run_sweep(tiny_sweep(), {});
  const std::string csv = to_csv(r);
  // Header + one line per point.
  EXPECT_EQ(static_cast<std::size_t>(std::count(csv.begin(), csv.end(), '\n')),
            1 + r.points.size());
  EXPECT_EQ(csv.substr(0, csv.find('\n')),
            "app,config,seed,n_uops,baseline_wide_cycles,wide_cycles,speedup,"
            "perf_pct,wide_cycle_speedup,helper_pct,copy_pct,wp_accuracy_pct,"
            "energy_baseline,energy,edp_gain_pct,ed2p_gain_pct");
  EXPECT_NE(csv.find("\ngcc,8_8_8,"), std::string::npos);
  EXPECT_NE(csv.find("\ngzip,8_8_8+BR+LR+CR,"), std::string::npos);
  EXPECT_NE(csv.find(",4000,"), std::string::npos);  // n_uops column
}

TEST(Report, JsonContainsPointsAndSummary) {
  const SweepResult r = run_sweep(tiny_sweep(), {});
  const std::string json = to_json(r);
  EXPECT_NE(json.find("\"sweep\": \"tiny\""), std::string::npos);
  EXPECT_NE(json.find("\"points\": ["), std::string::npos);
  EXPECT_NE(json.find("\"summary\": ["), std::string::npos);
  EXPECT_NE(json.find("\"config\": \"8_8_8+BR+LR+CR\""), std::string::npos);
  EXPECT_NE(json.find("\"geomean_speedup\": "), std::string::npos);
  EXPECT_NE(json.find("\"mean_wide_cycle_speedup\": "), std::string::npos);
  // Every point appears.
  std::size_t apps = 0;
  for (std::size_t pos = 0; (pos = json.find("\"app\": ", pos)) != std::string::npos;
       ++pos)
    ++apps;
  EXPECT_EQ(apps, r.points.size());
}

TEST(Report, RenderSummaryMentionsEveryVariant) {
  const SweepResult r = run_sweep(tiny_sweep(), {});
  const std::string table = render_summary(r);
  EXPECT_NE(table.find("8_8_8"), std::string::npos);
  EXPECT_NE(table.find("8_8_8+BR+LR+CR"), std::string::npos);
  EXPECT_NE(table.find("perf+% (avg)"), std::string::npos);
}

TEST(Report, SamplingBoundIgnoresStallCountersButNotIpc) {
  // One point, sampled equal to full except where each case says.
  SweepResult full;
  full.points.resize(1);
  full.points[0].point.profile.name = "gcc";
  full.points[0].point.variant.name = "8_8_8";
  SimResult& f = full.points[0].sim;
  f.uops = 1000;
  f.ipc = 1.5;
  f.counters[Counter::kStallCommit] = 50;
  f.counters[Counter::kStallQueue] = 10;
  SweepResult sampled = full;
  SimResult& s = sampled.points[0].sim;

  // A cold window's stall counters can be off by 10x and more: reported,
  // but outside the bound.
  s.counters[Counter::kStallCommit] = 500;
  s.counters[Counter::kStallQueue] = 400;
  EXPECT_EQ(max_sampling_rel_error(full, sampled), 0.0);
  EXPECT_NE(render_sampling_error(full, sampled).find("counter/stall_commit"),
            std::string::npos);

  // A paper metric still trips it: 3x the IPC is a relative error of 2.
  s.ipc = 3 * f.ipc;
  EXPECT_DOUBLE_EQ(max_sampling_rel_error(full, sampled), 2.0);
}

}  // namespace
}  // namespace hcsim::exp
