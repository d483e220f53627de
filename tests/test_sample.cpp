// src/sample — warm-up/measure sampling windows.
//
// The load-bearing property is the checkpoint contract: a window is a pure
// function of (machine config, program, record range), so the same schedule
// over any of the three record-stream backends (materialized trace,
// synthetic cursor, RV kernel executor), and one pass over several configs,
// must all be bit-identical to a single config's windowed run.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "exp/runner.hpp"
#include "rv/kernels.hpp"
#include "sample/record_stream.hpp"
#include "sample/spec.hpp"
#include "sample/windowed.hpp"
#include "sim/simulator.hpp"
#include "expect_result.hpp"

namespace hcsim::sample {
namespace {

/// Scoped environment override restoring the previous value on destruction.
class EnvGuard {
 public:
  EnvGuard(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) {
      had_ = true;
      old_ = old;
    }
    setenv(name, value, 1);
  }
  ~EnvGuard() {
    if (had_)
      setenv(name_, old_.c_str(), 1);
    else
      unsetenv(name_);
  }

 private:
  const char* name_;
  std::string old_;
  bool had_ = false;
};

// Deliberately skips trace_len: a profile-based run reports the requested
// length while a Trace-based run reports the actual record count (an RV
// kernel budget-cut at an instruction boundary can make them differ by a
// crack width), and the window schedule is identical either way.
void expect_identical(const SampledResult& a, const SampledResult& b) {
  EXPECT_EQ(a.sampled, b.sampled);
  EXPECT_EQ(a.simulated_uops, b.simulated_uops);
  EXPECT_EQ(a.measured_uops, b.measured_uops);
  expect_identical(a.total, b.total);
  ASSERT_EQ(a.windows.size(), b.windows.size());
  for (std::size_t i = 0; i < a.windows.size(); ++i) {
    EXPECT_EQ(a.windows[i].range.begin, b.windows[i].range.begin);
    EXPECT_EQ(a.windows[i].range.measure, b.windows[i].range.measure);
    EXPECT_EQ(a.windows[i].dl0_hits, b.windows[i].dl0_hits);
    EXPECT_EQ(a.windows[i].dl0_accesses, b.windows[i].dl0_accesses);
    EXPECT_EQ(a.windows[i].ul1_hits, b.windows[i].ul1_hits);
    EXPECT_EQ(a.windows[i].ul1_accesses, b.windows[i].ul1_accesses);
    expect_identical(a.windows[i].measured, b.windows[i].measured);
  }
}

// --- schedule planning ------------------------------------------------------

TEST(SampleSpec, PlanFixedPeriod) {
  const SampleSpec spec{/*warmup=*/100, /*measure=*/200, /*period=*/1000};
  const auto plan = plan_windows(spec, 2500);
  ASSERT_EQ(plan.size(), 3u);
  EXPECT_EQ(plan[0].begin, 0u);
  EXPECT_EQ(plan[1].begin, 1000u);
  EXPECT_EQ(plan[2].begin, 2000u);
  for (const WindowRange& w : plan) {
    EXPECT_EQ(w.warmup, 100u);
    EXPECT_EQ(w.measure, 200u);
    EXPECT_EQ(w.end(), w.begin + 300u);
  }
}

TEST(SampleSpec, PlanTruncatesFinalWindowMidMeasure) {
  const SampleSpec spec{/*warmup=*/100, /*measure=*/200, /*period=*/1000};
  const auto plan = plan_windows(spec, 2250);
  ASSERT_EQ(plan.size(), 3u);
  EXPECT_EQ(plan[2].measure, 150u);  // 2250 - (2000 + 100)
  EXPECT_EQ(plan[2].end(), 2250u);
}

TEST(SampleSpec, PlanDropsWindowEndingDuringWarmup) {
  const SampleSpec spec{/*warmup=*/100, /*measure=*/200, /*period=*/1000};
  // Trace ends at 2050: the third window's warm-up [2000, 2100) overruns.
  EXPECT_EQ(plan_windows(spec, 2050).size(), 2u);
  // Shorter than one warm-up: nothing to measure at all.
  EXPECT_TRUE(plan_windows(spec, 100).empty());
  EXPECT_TRUE(plan_windows(spec, 0).empty());
}

TEST(SampleSpec, PlanAutoPeriodTargetsTwentyWindows) {
  const SampleSpec spec{/*warmup=*/10, /*measure=*/20, /*period=*/0};
  EXPECT_EQ(spec.resolved_period(10000), 500u);
  EXPECT_EQ(plan_windows(spec, 10000).size(), SampleSpec::kAutoWindows);
  // Auto period never lets windows overlap, however short the trace.
  EXPECT_EQ(spec.resolved_period(100), 30u);
}

TEST(SampleSpec, PlanHonorsMaxWindows) {
  SampleSpec spec{/*warmup=*/100, /*measure=*/200, /*period=*/1000};
  spec.max_windows = 2;
  EXPECT_EQ(plan_windows(spec, 100000).size(), 2u);
}

TEST(SampleSpec, ValidateRejectsOverlappingPeriod) {
  const SampleSpec bad{/*warmup=*/100, /*measure=*/200, /*period=*/250};
  EXPECT_DEATH({ bad.validate(); }, "period must be 0");
}

TEST(SampleSpec, SpecErrorNamesTheFirstBrokenRule) {
  const u64 max = std::numeric_limits<u64>::max();
  // warmup + measure wraps to 0: an auto period over 19 µops would be 0.
  const SampleSpec overflow{/*warmup=*/1, /*measure=*/max, /*period=*/0};
  EXPECT_NE(spec_error(overflow).find("overflows"), std::string::npos);
  EXPECT_DEATH({ overflow.validate(); }, "overflows");
  EXPECT_DEATH({ (void)plan_windows(overflow, 19); }, "overflows");
  // Both rules broken: the overflow is named first.
  EXPECT_NE(spec_error(SampleSpec{max, 1, 10}).find("overflows"), std::string::npos);

  const SampleSpec overlap{/*warmup=*/100, /*measure=*/200, /*period=*/250};
  EXPECT_NE(spec_error(overlap).find("period"), std::string::npos);

  EXPECT_EQ(spec_error(SampleSpec{100, 200, 300}), "");
  EXPECT_EQ(spec_error(SampleSpec{100, 200, 0}), "");
  EXPECT_EQ(spec_error(SampleSpec{1, max - 1, 0}), "");  // the sum is max: fits
  EXPECT_EQ(spec_error(SampleSpec{max, 0, 10}), "");     // disabled
}

TEST(SampleSpec, Describe) {
  const SampleSpec spec{/*warmup=*/100, /*measure=*/200, /*period=*/0};
  EXPECT_NE(spec.describe().find("warmup=100"), std::string::npos);
  EXPECT_NE(spec.describe().find("auto"), std::string::npos);
  EXPECT_EQ(SampleSpec{}.describe(), "sampling disabled");
}

// --- environment spec -------------------------------------------------------

TEST(SampleSpec, FromEnvDisabledWithoutMeasure) {
  EnvGuard w("HCSIM_SAMPLE_WARMUP", "123");
  EnvGuard m("HCSIM_SAMPLE_MEASURE", "");
  const SampleSpec s = spec_from_env();
  EXPECT_FALSE(s.enabled());
  EXPECT_EQ(s.warmup, 123u);
}

TEST(SampleSpec, FromEnvReadsAllFields) {
  EnvGuard w("HCSIM_SAMPLE_WARMUP", "1000");
  EnvGuard m("HCSIM_SAMPLE_MEASURE", "4000");
  EnvGuard p("HCSIM_SAMPLE_PERIOD", "50000");
  EnvGuard x("HCSIM_SAMPLE_MAX_WINDOWS", "7");
  const SampleSpec s = spec_from_env();
  EXPECT_TRUE(s.enabled());
  EXPECT_EQ(s.warmup, 1000u);
  EXPECT_EQ(s.measure, 4000u);
  EXPECT_EQ(s.period, 50000u);
  EXPECT_EQ(s.max_windows, 7u);
}

TEST(SampleSpec, FromEnvRejectsMalformedValue) {
  EnvGuard m("HCSIM_SAMPLE_MEASURE", "100k");
  EXPECT_DEATH({ (void)spec_from_env(); }, "malformed value");
}

TEST(SampleSpec, FromEnvRejectsNegativeValue) {
  EnvGuard m("HCSIM_SAMPLE_MEASURE", "-5");
  EXPECT_DEATH({ (void)spec_from_env(); }, "malformed value");
}

TEST(SampleSpec, FromEnvRejectsOverflow) {
  EnvGuard m("HCSIM_SAMPLE_MEASURE", "99999999999999999999999999");
  EXPECT_DEATH({ (void)spec_from_env(); }, "does not fit in 64 bits");
}

// --- windowed simulation: bit-identity --------------------------------------

constexpr u64 kLen = 24000;

SampleSpec test_spec() {
  SampleSpec s;
  s.warmup = 500;
  s.measure = 1500;
  s.period = 4000;
  return s;
}

TEST(Windowed, CursorStreamMatchesMaterializedTrace) {
  // A tiny stream threshold forces the profile-based run onto the synthetic
  // generator cursor; the Trace overload simulates the materialized records.
  // Period 6500 over 20000 records truncates the final window mid-measure
  // (begin 19500, warm-up to 19800, only 200 of 800 measured µops left).
  EnvGuard threshold("HCSIM_STREAM_THRESHOLD", "1000");
  SampleSpec spec;
  spec.warmup = 300;
  spec.measure = 800;
  spec.period = 6500;
  const WorkloadProfile& prof = spec_profile("bzip2");
  const MachineConfig cfg = helper_machine(steering_ir());

  const SampledResult streamed = simulate_sampled(cfg, prof, 20000, spec);
  const SampledResult materialized =
      simulate_sampled(cfg, cached_trace(prof, 20000), spec);
  ASSERT_TRUE(streamed.sampled);
  ASSERT_EQ(streamed.windows.size(), 4u);
  EXPECT_EQ(streamed.windows.back().range.measure, 200u);
  expect_identical(streamed, materialized);
}

TEST(Windowed, RvKernelStreamBitIdentical) {
  // Below the threshold the RV kernel is materialized through cached_trace;
  // above it the stream re-executes the kernel from entry. Both paths must
  // agree.
  EnvGuard threshold("HCSIM_STREAM_THRESHOLD", "1000");
  const WorkloadProfile prof = rv::rv_workload_profile("crc32");
  const MachineConfig cfg = helper_machine(steering_888_br_lr_cr());
  const SampleSpec spec = test_spec();

  const SampledResult executor = simulate_sampled(cfg, prof, kLen, spec);
  ASSERT_TRUE(executor.sampled);
  expect_identical(executor, simulate_sampled(cfg, rv::kernel_trace("crc32", kLen), spec));
}

TEST(Windowed, RvKernelStreamEndsWhereKernelTraceEnds) {
  // A kernel still running at the trace length is cut at an instruction
  // boundary: dot's instruction at µop 11999 cracks into two µops, so its
  // 12000-µop trace holds 11999. The stream, a window ending at the trace
  // length and the full pass all stop where kernel_trace stops.
  EnvGuard threshold("HCSIM_STREAM_THRESHOLD", "1000");
  const WorkloadProfile prof = rv::rv_workload_profile("dot");
  const Trace trace = rv::kernel_trace("dot", 12000);
  ASSERT_EQ(trace.records.size(), 11999u);
  std::vector<TraceRecord> streamed;
  workload_stream_factory(prof, 12000)()->feed_range(
      0, 12000, [&streamed](const TraceRecord& r) { streamed.push_back(r); });
  ASSERT_EQ(streamed.size(), trace.records.size());
  for (std::size_t i = 0; i < streamed.size(); ++i) {
    ASSERT_EQ(streamed[i].pc, trace.records[i].pc) << "record " << i;
    ASSERT_EQ(streamed[i].result, trace.records[i].result) << "record " << i;
    ASSERT_EQ(streamed[i].mem_addr, trace.records[i].mem_addr) << "record " << i;
  }
  // A stream that seeks past its start and then continues stops at the
  // same cut.
  const std::unique_ptr<RecordStream> stream = workload_stream_factory(prof, 12000)();
  u64 fed = 0;
  const auto count = [&fed](const TraceRecord&) { ++fed; };
  stream->feed_range(3000, 4000, count);
  stream->feed_range(4000, 12000, count);
  EXPECT_EQ(fed, trace.records.size() - 3000);

  SampleSpec spec;
  spec.warmup = 500;
  spec.measure = 1500;
  spec.period = 2500;  // the last window is [10000, 12000)
  const MachineConfig cfg = helper_machine(steering_888_br_lr_cr());
  const SampledResult sampled = simulate_sampled(cfg, prof, 12000, spec);
  EXPECT_EQ(sampled.windows.back().range.measure, 1499u);
  expect_identical(sampled, simulate_sampled(cfg, trace, spec));
  const std::vector<SampledResult> full =
      simulate_configs(std::span<const MachineConfig>(&cfg, 1), prof, 12000, SampleSpec{});
  expect_identical(full.front().total, simulate_streamed(cfg, prof, 12000));
}

TEST(Windowed, FallsBackToFullRunOnShortTrace) {
  SampleSpec spec;
  spec.warmup = 50000;  // longer than the whole trace
  spec.measure = 1000;
  const WorkloadProfile& prof = spec_profile("mcf");
  const MachineConfig cfg = monolithic_baseline();
  const SampledResult r = simulate_sampled(cfg, prof, 10000, spec);
  EXPECT_FALSE(r.sampled);
  EXPECT_TRUE(r.windows.empty());
  expect_identical(r.total, simulate(cfg, cached_trace(prof, 10000)));
}

TEST(Windowed, MeasuredUopsAddUp) {
  const WorkloadProfile& prof = spec_profile("gzip");
  const SampledResult r = simulate_sampled(monolithic_baseline(), prof, kLen, test_spec());
  ASSERT_TRUE(r.sampled);
  EXPECT_EQ(r.trace_len, kLen);
  EXPECT_EQ(r.windows.size(), 6u);
  u64 measured = 0, simulated = 0;
  for (const WindowStats& w : r.windows) {
    measured += w.range.measure;
    simulated += w.range.warmup + w.range.measure;
    EXPECT_EQ(w.measured.uops, w.range.measure);
  }
  EXPECT_EQ(r.measured_uops, measured);
  EXPECT_EQ(r.simulated_uops, simulated);
  EXPECT_EQ(r.total.uops, measured);
  EXPECT_LT(r.simulated_uops, kLen);  // sampling actually skipped something
}

// --- one pass, several configs ----------------------------------------------

/// A sweep cell's configs: the baseline first, then helper variants.
std::vector<MachineConfig> cell_configs() {
  return {monolithic_baseline(), helper_machine(steering_888()),
          helper_machine(steering_888_br_lr_cr())};
}

/// The multi-config pass against one single-config run per config, field by
/// field.
void expect_pass_matches_single_runs(const std::vector<MachineConfig>& cfgs,
                                     const WorkloadProfile& prof, u64 len,
                                     const SampleSpec& spec) {
  const std::vector<SampledResult> pass = simulate_configs(cfgs, prof, len, spec);
  ASSERT_EQ(pass.size(), cfgs.size());
  for (std::size_t k = 0; k < cfgs.size(); ++k) {
    SCOPED_TRACE("config " + std::to_string(k));
    const SampledResult single = simulate_sampled(cfgs[k], prof, len, spec);
    EXPECT_EQ(pass[k].trace_len, single.trace_len);
    EXPECT_EQ(pass[k].total.config, single.total.config);
    expect_identical(pass[k], single);
  }
}

TEST(MultiConfig, OneConfigIsTheSingleRun) {
  EnvGuard threshold("HCSIM_STREAM_THRESHOLD", "1000");  // generator stream
  expect_pass_matches_single_runs({helper_machine(steering_ir())}, spec_profile("gcc"),
                                  kLen, test_spec());
}

TEST(MultiConfig, EightConfigsOnEveryBackend) {
  // Eight configs, two of them repeated: pipelines fed the same spans must
  // not interact.
  std::vector<MachineConfig> cfgs = cell_configs();
  cfgs.push_back(helper_machine(steering_ir()));
  cfgs.push_back(helper_machine(steering_888_br_lr_cr()));  // duplicate of cfgs[2]
  cfgs.push_back(monolithic_baseline());                    // duplicate of cfgs[0]
  cfgs.push_back(helper_machine(steering_888_br()));
  cfgs.push_back(helper_machine(steering_888_br_lr()));
  ASSERT_EQ(cfgs.size(), 8u);
  {
    SCOPED_TRACE("materialized");
    expect_pass_matches_single_runs(cfgs, spec_profile("vpr"), kLen, test_spec());
  }
  EnvGuard threshold("HCSIM_STREAM_THRESHOLD", "1000");
  {
    SCOPED_TRACE("generator");
    expect_pass_matches_single_runs(cfgs, spec_profile("vpr"), kLen, test_spec());
  }
  {
    SCOPED_TRACE("rv kernel");
    expect_pass_matches_single_runs(cfgs, rv::rv_workload_profile("crc32"), kLen,
                                    test_spec());
  }
}

TEST(MultiConfig, TraceEndingMidWindow) {
  // crc32 halts after 34336 µops: the window at 33000 measures only part of
  // its 1500 µops, and the planned windows after it never start.
  EnvGuard threshold("HCSIM_STREAM_THRESHOLD", "1000");
  SampleSpec spec;
  spec.warmup = 500;
  spec.measure = 1500;
  spec.period = 3000;
  const WorkloadProfile prof = rv::rv_workload_profile("crc32");
  const std::vector<SampledResult> pass =
      simulate_configs(cell_configs(), prof, 40000, spec);
  ASSERT_TRUE(pass.front().sampled);
  const WindowStats& last = pass.front().windows.back();
  EXPECT_EQ(last.range.begin, 33000u);
  EXPECT_GT(last.range.measure, 0u);
  EXPECT_LT(last.range.measure, spec.measure);
  expect_pass_matches_single_runs(cell_configs(), prof, 40000, spec);

  // The generator's last planned window cut short by the trace length.
  spec.period = 6500;
  expect_pass_matches_single_runs(cell_configs(), spec_profile("bzip2"), 20000, spec);
}

TEST(MultiConfig, EmptyPlanFallsBackToFullRuns) {
  SampleSpec spec;
  spec.warmup = 50000;  // longer than the whole trace: no window planned
  spec.measure = 1000;
  const WorkloadProfile& mcf = spec_profile("mcf");
  const std::vector<MachineConfig> cfgs = cell_configs();
  const std::vector<SampledResult> pass = simulate_configs(cfgs, mcf, 10000, spec);
  ASSERT_EQ(pass.size(), cfgs.size());
  for (std::size_t k = 0; k < cfgs.size(); ++k) {
    EXPECT_FALSE(pass[k].sampled);
    expect_identical(pass[k].total, simulate(cfgs[k], cached_trace(mcf, 10000)));
  }
  expect_pass_matches_single_runs(cfgs, mcf, 10000, spec);

  // A window is planned but the kernel halts during its warm-up.
  EnvGuard threshold("HCSIM_STREAM_THRESHOLD", "1000");
  spec.warmup = 35000;
  const WorkloadProfile prof = rv::rv_workload_profile("crc32");
  ASSERT_EQ(plan_windows(spec, 40000).size(), 1u);
  EXPECT_FALSE(simulate_configs(cell_configs(), prof, 40000, spec).front().sampled);
  expect_pass_matches_single_runs(cell_configs(), prof, 40000, spec);
}

TEST(MultiConfig, DisabledSpecMatchesSimulateWorkload) {
  // Unsampled sweeps take the same pass: every pipeline is fed the whole
  // trace, and must equal simulate_workload's cached, generator and RV
  // kernel routes.
  const std::vector<MachineConfig> cfgs = cell_configs();
  const auto check = [&cfgs](const WorkloadProfile& prof) {
    const std::vector<SampledResult> pass = simulate_configs(cfgs, prof, 20000, SampleSpec{});
    ASSERT_EQ(pass.size(), cfgs.size());
    for (std::size_t k = 0; k < cfgs.size(); ++k) {
      SCOPED_TRACE("config " + std::to_string(k));
      EXPECT_FALSE(pass[k].sampled);
      expect_identical(pass[k].total,
                       simulate_workload(cfgs[k], prof, 20000, SampleSpec{}));
    }
  };
  {
    SCOPED_TRACE("materialized");
    check(spec_profile("twolf"));
  }
  EnvGuard threshold("HCSIM_STREAM_THRESHOLD", "1000");
  {
    SCOPED_TRACE("generator");
    check(spec_profile("twolf"));
  }
  {
    SCOPED_TRACE("rv kernel");
    check(rv::rv_workload_profile("crc32"));
  }
}

/// Wraps another stream the way a timing decorator does: each range is
/// pulled from the inner stream a chunk at a time into a buffer, counted,
/// and replayed into the sink.
class BufferingStream final : public RecordStream {
 public:
  BufferingStream(std::unique_ptr<RecordStream> inner, u64& delivered)
      : inner_(std::move(inner)), delivered_(delivered) {}

  const Program& program() const override { return inner_->program(); }

  void feed_range(u64 begin, u64 end, const RecordSink& sink) override {
    constexpr u64 kChunk = 777;  // odd, so chunks straddle window edges
    for (u64 pos = begin; pos < end;) {
      const u64 stop = std::min(end, pos + kChunk);
      buf_.clear();
      inner_->feed_range(pos, stop, [this](const TraceRecord& r) { buf_.push_back(r); });
      delivered_ += buf_.size();
      for (const TraceRecord& r : buf_) sink(r);
      if (pos + buf_.size() < stop) return;  // the stream ended
      pos = stop;
    }
  }

 private:
  std::unique_ptr<RecordStream> inner_;
  u64& delivered_;
  std::vector<TraceRecord> buf_;
};

TEST(MultiConfig, DecoratedFactoryMatchesProfileOverload) {
  // A factory whose streams wrap the workload's own gives the profile
  // overload's results, sampled and full, on the generator stream and on
  // the RV executor; the pass opens one stream and is fed exactly the
  // records it simulates.
  EnvGuard threshold("HCSIM_STREAM_THRESHOLD", "1000");
  const std::vector<MachineConfig> cfgs = cell_configs();
  for (const WorkloadProfile& prof :
       {spec_profile("gcc"), rv::rv_workload_profile("crc32")}) {
    for (const SampleSpec& spec : {test_spec(), SampleSpec{}}) {
      SCOPED_TRACE(prof.name + (spec.enabled() ? " sampled" : " full"));
      const StreamFactory inner = workload_stream_factory(prof, kLen);
      u64 opened = 0, delivered = 0;
      const StreamFactory decorated = [&] {
        ++opened;
        return std::make_unique<BufferingStream>(inner(), delivered);
      };
      const std::vector<SampledResult> pass = simulate_configs(cfgs, decorated, kLen, spec);
      const std::vector<SampledResult> plain = simulate_configs(cfgs, prof, kLen, spec);
      ASSERT_EQ(pass.size(), plain.size());
      for (std::size_t k = 0; k < cfgs.size(); ++k) {
        SCOPED_TRACE("config " + std::to_string(k));
        EXPECT_EQ(pass[k].trace_len, plain[k].trace_len);
        expect_identical(pass[k], plain[k]);
      }
      EXPECT_EQ(pass.front().sampled, spec.enabled());
      EXPECT_EQ(opened, 1u);
      EXPECT_EQ(delivered, pass.front().simulated_uops);
      expect_identical(WindowedSimulator(cfgs[2], spec).run(decorated, kLen), plain[2]);
    }
  }
}

// --- sampling through simulate_workload -------------------------------------

TEST(Windowed, SpecArgumentRoutesSimulateWorkload) {
  // The spec argument alone decides: the active spec is not consulted.
  const WorkloadProfile& prof = spec_profile("parser");
  const MachineConfig cfg = helper_machine(steering_ir());
  set_active_sample_spec(test_spec());
  const SimResult full = simulate_workload(cfg, prof, kLen, SampleSpec{});
  set_active_sample_spec(SampleSpec{});  // restore: sampling off
  expect_identical(full, simulate(cfg, cached_trace(prof, kLen)));
  expect_identical(simulate_workload(cfg, prof, kLen, test_spec()),
                   simulate_sampled(cfg, prof, kLen, test_spec()).total);
}

TEST(Windowed, ActiveSpecRoutesRunSweep) {
  // Sweeps, and so the figure benches, sample through HCSIM_SAMPLE_*:
  // run_sweep reads the active spec and runs every machine of a cell under
  // it.
  const WorkloadProfile& prof = spec_profile("parser");
  exp::SweepSpec sweep;
  sweep.workloads = {prof};
  sweep.variants = {exp::variant_from_steering(steering_ir())};
  sweep.trace_lens = {kLen};
  set_active_sample_spec(test_spec());
  const exp::PointResult run = exp::run_sweep(sweep).points.front();
  set_active_sample_spec(SampleSpec{});  // restore: sampling off
  const MachineConfig base = monolithic_baseline();
  const MachineConfig helper = helper_machine(steering_ir());
  expect_identical(run.baseline, simulate_sampled(base, prof, kLen, test_spec()).total);
  expect_identical(run.sim, simulate_sampled(helper, prof, kLen, test_spec()).total);
  expect_identical(exp::run_sweep(sweep).points.front().sim,
                   simulate(helper, cached_trace(prof, kLen)));
}

// --- sampled-vs-full accuracy -----------------------------------------------

TEST(Windowed, SampledTracksFullRunLoosely) {
  // Sampling is an approximation; the bound here is deliberately loose and
  // only guards against gross breakage (wrong windows, counters from the
  // warm-up region leaking in, ...).
  const WorkloadProfile& prof = spec_profile("gcc");
  const MachineConfig cfg = helper_machine(steering_888_br_lr_cr());
  constexpr u64 kFullLen = 120000;
  SampleSpec spec;
  spec.warmup = 2000;
  spec.measure = 4000;  // ~20 windows via auto period
  const SimResult full = simulate(cfg, cached_trace(prof, kFullLen));
  const SampledResult sampled = simulate_sampled(cfg, prof, kFullLen, spec);
  ASSERT_TRUE(sampled.sampled);

  const std::vector<SampleError> errors = sampling_errors(full, sampled.total);
  EXPECT_FALSE(errors.empty());
  for (const SampleError& e : errors)
    EXPECT_LT(e.rel_err, 0.35) << e.metric << ": full=" << e.full
                               << " sampled=" << e.sampled;
  EXPECT_EQ(max_rel_error(errors),
            [&] {
              double m = 0.0;
              for (const SampleError& e : errors) m = std::max(m, e.rel_err);
              return m;
            }());
}

TEST(Windowed, WindowTableRenders) {
  const SampledResult r =
      simulate_sampled(monolithic_baseline(), spec_profile("gap"), kLen, test_spec());
  const std::string table = render_window_table(r);
  EXPECT_NE(table.find("window"), std::string::npos);
  EXPECT_EQ(std::count(table.begin(), table.end(), '\n'),
            static_cast<long>(r.windows.size()) + 2);  // header + rule + rows
}

}  // namespace
}  // namespace hcsim::sample
