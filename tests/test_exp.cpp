// Tests for the experiment-orchestration subsystem (src/exp/): grid
// expansion, the thread pool, parallel-vs-serial result determinism, and
// the CSV/JSON report emitters.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <set>
#include <string>

#include "exp/report.hpp"
#include "exp/runner.hpp"
#include "exp/sweep.hpp"
#include "sample/spec.hpp"
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

// --- ThreadPool -------------------------------------------------------------

TEST(ThreadPool, RunsEverySubmittedJob) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) pool.submit([&count] { ++count; });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, WaitIdleIsReusable) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.wait_idle();  // no jobs: returns immediately
  pool.submit([&count] { ++count; });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 1);
  pool.submit([&count] { ++count; });
  pool.submit([&count] { ++count; });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 3);
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

TEST(Runner, CellPassMatchesPerPointRuns) {
  // Above a lowered stream threshold a sampled sweep feeds several configs
  // of a cell from one record stream: the generator for fig12 (12 cells of
  // 3 configs) and the RV kernel for rv (8 cells of 8). Thread counts 1-16
  // split a cell's configs over 1, 2, 3 or 4 jobs; an unsampled sweep runs
  // one job per config. Either way the CSV must equal the one assembled
  // from separate simulate_workload calls per cell baseline and per point.
  const char* old_threshold = std::getenv("HCSIM_STREAM_THRESHOLD");
  const std::string saved = old_threshold ? old_threshold : "";
  setenv("HCSIM_STREAM_THRESHOLD", "1000", 1);
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
        pr.baseline = simulate_workload(spec.baseline, p.profile, p.n_records);
        pr.sim = simulate_workload(p.variant.machine, p.profile, p.n_records);
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
  if (old_threshold)
    setenv("HCSIM_STREAM_THRESHOLD", saved.c_str(), 1);
  else
    unsetenv("HCSIM_STREAM_THRESHOLD");
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

}  // namespace
}  // namespace hcsim::exp
