// The shared trace cache (src/sim/trace_cache.hpp): one trace per (whole
// profile, length) key, generated once while any handle holds it and freed
// when the last one drops. The holds exp::simulate_cells takes on it are
// tested with the executor (tests/test_exp.cpp).
//
// Every test uses a key (profile seed or length) that no other test pins
// through cached_trace(), so generation counts are exact even when the
// whole suite runs in one process.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <fstream>
#include <thread>
#include <vector>

#include "exp/runner.hpp"
#include "sim/simulator.hpp"

namespace hcsim {
namespace {

WorkloadProfile profile_with_seed(const char* app, u64 seed) {
  WorkloadProfile p = spec_profile(app);
  p.seed = seed;
  return p;
}

/// The process's resident set in MB; 0 where /proc/self/statm is missing.
double resident_mb() {
  std::ifstream statm("/proc/self/statm");
  u64 size = 0, resident = 0;
  statm >> size >> resident;
  return static_cast<double>(resident * static_cast<u64>(sysconf(_SC_PAGESIZE))) / (1 << 20);
}

TEST(TraceCache, ConcurrentAcquirersShareOneGeneration) {
  const WorkloadProfile p = profile_with_seed("vpr", 4201);
  const u64 generated = trace_cache_stats().generated;
  std::vector<TraceHandle> got(8);
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < got.size(); ++i)
    threads.emplace_back([&, i] {
      while (!go.load()) std::this_thread::yield();
      got[i] = acquire_trace(p, 5000);
    });
  go.store(true);
  for (std::thread& t : threads) t.join();
  for (const TraceHandle& h : got) EXPECT_EQ(h.get(), got[0].get());
  EXPECT_EQ(got[0]->records.size(), 5000u);
  EXPECT_EQ(trace_cache_stats().generated - generated, 1u);
  EXPECT_EQ(trace_cache_stats().live, 1u);
  got.clear();
  EXPECT_EQ(trace_cache_stats().live, 0u);
}

TEST(TraceCache, LastHandleFreesTheTrace) {
  const WorkloadProfile p = profile_with_seed("gzip", 4202);
  const u64 generated = trace_cache_stats().generated;
  TraceHandle a = acquire_trace(p, 3000);
  TraceHandle b = acquire_trace(p, 3000);
  EXPECT_EQ(a.get(), b.get());
  const u64 tick = simulate(monolithic_baseline(), *a).final_tick;
  a.reset();
  EXPECT_EQ(trace_cache_stats().live, 1u);  // b still holds it
  b.reset();
  EXPECT_EQ(trace_cache_stats().live, 0u);
  EXPECT_EQ(trace_cache_stats().generated - generated, 1u);
  // Freed, so the next acquirer generates the same trace again.
  const TraceHandle again = acquire_trace(p, 3000);
  EXPECT_EQ(trace_cache_stats().generated - generated, 2u);
  EXPECT_EQ(simulate(monolithic_baseline(), *again).final_tick, tick);
}

TEST(TraceCache, DroppedTraceLeavesNoResidentPages) {
  // Dropping the first trace this size raises glibc's mmap threshold past
  // it, so the second is carved from the heap, where free() alone would keep
  // its pages resident. The cache hands them back however a trace was
  // allocated.
  const u64 n = 300000;
  const double trace_mb = static_cast<double>(n * sizeof(TraceRecord)) / (1 << 20);
  acquire_trace(profile_with_seed("twolf", 4207), n).reset();
  TraceHandle h = acquire_trace(profile_with_seed("twolf", 4208), n);
  const double held = resident_mb();
  if (held == 0.0) GTEST_SKIP() << "no /proc/self/statm";
  h.reset();
  EXPECT_LT(resident_mb(), held - trace_mb / 2) << "trace of " << trace_mb << " MB";
}

TEST(TraceCache, DroppingAndAcquiringOneKeyRaceSafely) {
  // The last handle of a key drops while other threads acquire the key:
  // every acquirer gets a whole trace, and none is left behind.
  const WorkloadProfile p = profile_with_seed("mcf", 4203);
  std::vector<std::thread> threads;
  std::atomic<int> bad{0};
  for (int t = 0; t < 4; ++t)
    threads.emplace_back([&] {
      for (int i = 0; i < 200; ++i) {
        const TraceHandle h = acquire_trace(p, 300);
        if (h->records.size() != 300 || h->program.uops.empty()) ++bad;
      }
    });
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(bad.load(), 0);
  EXPECT_EQ(trace_cache_stats().live, 0u);
}

TEST(TraceCache, PinnedTraceStaysAfterItsHandlesDrop) {
  const WorkloadProfile p = profile_with_seed("gap", 4204);
  TraceHandle h = acquire_trace(p, 2000);
  const Trace& pinned = cached_trace(p, 2000);
  EXPECT_EQ(&pinned, h.get());
  EXPECT_EQ(trace_cache_stats().live, 0u);  // pinned traces are not counted
  const u64 generated = trace_cache_stats().generated;
  h.reset();
  EXPECT_EQ(acquire_trace(p, 2000).get(), &pinned);
  EXPECT_EQ(&cached_trace(p, 2000), &pinned);
  EXPECT_EQ(trace_cache_stats().generated, generated);
}

TEST(TraceCache, KeyCoversTheWholeProfile) {
  // Profiles that share gcc's name and seed but not its other fields read
  // their own trace, even while gcc's is cached.
  const u64 n = 20000;
  const WorkloadProfile gcc = spec_profile("gcc");
  WorkloadProfile knobs = gcc;
  knobs.p_store = 0.0;
  knobs.w_fp_chain = 2.0;
  knobs.num_loops = 3;
  WorkloadProfile kernel = gcc;
  kernel.rv_kernel = "crc32";
  const MachineConfig cfg = monolithic_baseline();
  const Trace& stock = cached_trace(gcc, n);
  const SimResult stock_run = simulate(cfg, stock);
  for (const WorkloadProfile& other : {knobs, kernel}) {
    SCOPED_TRACE(other.rv_kernel.empty() ? "knobs" : "rv_kernel");
    const SimResult got = simulate_workload(cfg, other, n, sample::SampleSpec{});
    const SimResult want = simulate_streamed(cfg, other, n);
    EXPECT_EQ(got.final_tick, want.final_tick);
    EXPECT_EQ(got.uops, want.uops);
    EXPECT_EQ(got.to_helper, want.to_helper);
    EXPECT_EQ(got.copies, want.copies);
    EXPECT_NE(got.final_tick, stock_run.final_tick);
  }
}

TEST(TraceCache, SweepCellGeneratesItsTraceOnce) {
  // The baseline and both configs read one generation, held for the sweep:
  // the cell's outcomes and jumps, streamed from the generator, so the
  // unsampled cell takes no trace from the cache.
  exp::SweepSpec spec;
  spec.workloads = {profile_with_seed("parser", 4207)};
  spec.variants = {exp::variant_from_steering(steering_888()),
                   exp::variant_from_steering(steering_ir())};
  spec.trace_lens = {2500};
  const u64 generated = trace_cache_stats().generated;
  const u64 built = exp::cell_stats().built;
  const exp::SweepResult res = exp::run_sweep(spec);
  EXPECT_EQ(res.points.size(), 2u);
  EXPECT_EQ(exp::cell_stats().built - built, 1u);
  EXPECT_EQ(exp::cell_stats().live, 0u);
  EXPECT_EQ(trace_cache_stats().generated, generated);
  EXPECT_EQ(trace_cache_stats().live, 0u);
}

}  // namespace
}  // namespace hcsim
