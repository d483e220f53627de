// Simulator micro-benchmarks (google-benchmark): trace generation rate,
// pipeline simulation rate, and predictor lookup cost. These guard the
// repository's own performance, not a paper figure.
#include <benchmark/benchmark.h>

#include <span>

#include "bbcache/bb_cache.hpp"
#include "core/cluster_epoch.hpp"
#include "predict/width_predictor.hpp"
#include "sample/spec.hpp"
#include "sample/windowed.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace hcsim;

void BM_TraceGeneration(benchmark::State& state) {
  const WorkloadProfile& prof = spec_profile("gcc");
  const u64 n = static_cast<u64>(state.range(0));
  for (auto _ : state) {
    Trace t = generate_trace(prof, n);
    benchmark::DoNotOptimize(t.records.data());
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) * static_cast<i64>(n));
}
BENCHMARK(BM_TraceGeneration)->Arg(10000)->Arg(100000);

void BM_PipelineBaseline(benchmark::State& state) {
  const Trace& t = cached_trace(spec_profile("gcc"), static_cast<u64>(state.range(0)));
  const MachineConfig cfg = monolithic_baseline();
  for (auto _ : state) {
    SimResult r = simulate(cfg, t);
    benchmark::DoNotOptimize(r.final_tick);
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_PipelineBaseline)->Arg(10000)->Arg(100000);

void BM_PipelineBatched(benchmark::State& state) {
  // The intended hot path: a decode cache shared across runs (as the sweep
  // drivers share it across a config's workloads) + the batched SoA feed.
  // After the first iteration every template replays from the cache.
  const Trace& t = cached_trace(spec_profile("gcc"), static_cast<u64>(state.range(0)));
  const MachineConfig cfg = monolithic_baseline();
  DecodeCache cache(/*enabled=*/true);
  for (auto _ : state) {
    Pipeline p(cfg, t.program, &cache);
    p.feed(std::span<const TraceRecord>(t.records));
    SimResult r = p.finish();
    benchmark::DoNotOptimize(r.final_tick);
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_PipelineBatched)->Arg(10000)->Arg(100000);

void BM_PipelineBatchedNoCache(benchmark::State& state) {
  // Cache-disabled twin of BM_PipelineBatched: identical feed path, but
  // every record re-cracks its template (the HCSIM_BBCACHE=0 debug mode).
  // The gap between the two is the decode cache's contribution alone.
  const Trace& t = cached_trace(spec_profile("gcc"), static_cast<u64>(state.range(0)));
  const MachineConfig cfg = monolithic_baseline();
  DecodeCache cache(/*enabled=*/false);
  for (auto _ : state) {
    Pipeline p(cfg, t.program, &cache);
    p.feed(std::span<const TraceRecord>(t.records));
    SimResult r = p.finish();
    benchmark::DoNotOptimize(r.final_tick);
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_PipelineBatchedNoCache)->Arg(10000)->Arg(100000);

void BM_PipelineHelperIr(benchmark::State& state) {
  const Trace& t = cached_trace(spec_profile("gcc"), static_cast<u64>(state.range(0)));
  const MachineConfig cfg = helper_machine(steering_ir());
  for (auto _ : state) {
    SimResult r = simulate(cfg, t);
    benchmark::DoNotOptimize(r.final_tick);
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_PipelineHelperIr)->Arg(10000)->Arg(100000);

void BM_PipelineStreamed(benchmark::State& state) {
  // Fused generation + simulation through the streaming cursor: the path
  // long runs take (no materialized trace), including the generator cost.
  const WorkloadProfile& prof = spec_profile("gcc");
  const MachineConfig cfg = monolithic_baseline();
  const u64 n = static_cast<u64>(state.range(0));
  for (auto _ : state) {
    SimResult r = simulate_streamed(cfg, prof, n);
    benchmark::DoNotOptimize(r.final_tick);
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_PipelineStreamed)->Arg(10000)->Arg(100000);

void BM_PipelineSampled(benchmark::State& state) {
  // Warm-up/measure sampled simulation: 5 windows of 1% warm-up + 4% measure
  // feed ~25% of the trace. Items processed counts every trace µop *covered*
  // (simulated or skipped), so the ratio to BM_PipelineStreamed is the
  // sampling speedup at this schedule.
  const WorkloadProfile& prof = spec_profile("gcc");
  const MachineConfig cfg = monolithic_baseline();
  const u64 n = static_cast<u64>(state.range(0));
  sample::SampleSpec spec;
  spec.warmup = n / 100;
  spec.measure = n / 25;
  spec.period = n / 5;
  for (auto _ : state) {
    sample::SampledResult r = sample::simulate_sampled(cfg, prof, n, spec);
    benchmark::DoNotOptimize(r.total.final_tick);
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_PipelineSampled)->Arg(10000)->Arg(100000);

void BM_ClusterEpoch(benchmark::State& state) {
  // The fused per-cluster resource engine alone: a synthetic dispatch
  // stream shaped like the pipeline's (mostly-forward ticks, short source
  // delays, width 3 / queue 32 / 2-tick cycles — the wide cluster).
  ClusterEpoch e;
  e.init(/*issue_width=*/3, /*queue_size=*/32, /*copy_ports=*/2,
         /*cycle_ticks=*/2);
  Tick from = 0;
  u32 x = 1;
  u64 sum = 0;
  for (auto _ : state) {
    x = x * 1664525u + 1013904223u;
    from += x % 3;
    const auto d = e.dispatch(from, from + (x >> 16) % 8);
    sum += d.issue;
  }
  benchmark::DoNotOptimize(sum);
  state.SetItemsProcessed(static_cast<i64>(state.iterations()));
}
BENCHMARK(BM_ClusterEpoch);

// BM_ClusterEpoch never slides a ring window by more than a few cycles, so
// it cannot see window GC. On the Table 1 machine every UL1 miss makes a
// µop's sources ready 450 wide cycles (900 ticks) later, and the ROB fills
// behind it, so dispatch resumes that much later too: each miss slides
// every ring window by hundreds of cycles. BM_ClusterEpochUl1Miss replays
// the same dispatch stream with such a miss on every 32nd dispatch; the
// stream crosses the 65,536-cycle window every ~4,500 dispatches.
constexpr Tick kMissTicks = 900;
constexpr u32 kMissEvery = 32;

void BM_ClusterEpochUl1Miss(benchmark::State& state) {
  ClusterEpoch e;
  e.init(/*issue_width=*/3, /*queue_size=*/32, /*copy_ports=*/2,
         /*cycle_ticks=*/2);
  Tick from = 0;
  u32 x = 1, n = 0;
  u64 sum = 0;
  for (auto _ : state) {
    x = x * 1664525u + 1013904223u;
    from += x % 3;
    const bool miss = ++n % kMissEvery == 0;
    const Tick src = from + (x >> 16) % 8 + (miss ? kMissTicks : 0);
    const auto d = e.dispatch(from, src);
    if (miss) from = src;  // dispatch resumes when the miss returns
    sum += d.issue;
  }
  benchmark::DoNotOptimize(sum);
  state.SetItemsProcessed(static_cast<i64>(state.iterations()));
}
BENCHMARK(BM_ClusterEpochUl1Miss);

void BM_WidthPredictorTrain(benchmark::State& state) {
  WidthPredictor p;
  u32 x = 1;
  for (auto _ : state) {
    x = x * 1664525u + 1013904223u;
    p.train_result(x & 0xFFFF, (x >> 20) & 1);
    benchmark::DoNotOptimize(p.predict_result(x & 0xFFFF));
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()));
}
BENCHMARK(BM_WidthPredictorTrain);

}  // namespace

BENCHMARK_MAIN();
