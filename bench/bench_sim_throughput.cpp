// Component micro-benchmarks (google-benchmark): the ClusterEpoch
// resource engine and the width predictor, alone. These guard the
// repository's own performance, not a paper figure; the whole-pipeline
// rates (trace generation, baseline, helper+IR, streamed, sampled) are
// hcsim_bench's.
#include <benchmark/benchmark.h>

#include "core/cluster_epoch.hpp"
#include "predict/width_predictor.hpp"

namespace {

using namespace hcsim;

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
