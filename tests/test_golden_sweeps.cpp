// Golden determinism: the hot-path rewrite (enum-indexed counters,
// ring-buffer schedulers, streaming traces) must hold every paper statistic
// bit-identical to the pre-refactor simulator. The embedded CSVs were
// captured from the seed implementation (std::map counters + std::set
// ledgers); the fig06/fig12/rv named sweeps must reproduce them
// byte-for-byte, serially and on the thread pool.
#include <gtest/gtest.h>

#include "bbcache/bb_cache.hpp"
#include "core/pipeline.hpp"
#include "exp/report.hpp"
#include "exp/runner.hpp"
#include "exp/sweep.hpp"
#include "wload/executor.hpp"
#include "wload/profile.hpp"

#include "golden_sweep_data.inc"

namespace hcsim::exp {
namespace {

constexpr u64 kGoldenTraceLen = 4000;  // the length the goldens were captured at

std::string sweep_csv(const std::string& name, unsigned threads) {
  auto spec = find_sweep(name);
  EXPECT_TRUE(spec.has_value()) << name;
  spec->trace_lens = {kGoldenTraceLen};
  RunOptions opts;
  opts.threads = threads;
  return to_csv(run_sweep(*spec, opts));
}

TEST(GoldenSweeps, Fig06MatchesSeedSerial) {
  EXPECT_EQ(sweep_csv("fig06", 1), kGolden_fig06);
}

TEST(GoldenSweeps, Fig06MatchesSeedThreaded) {
  EXPECT_EQ(sweep_csv("fig06", 4), kGolden_fig06);
}

TEST(GoldenSweeps, Fig12MatchesSeedSerial) {
  EXPECT_EQ(sweep_csv("fig12", 1), kGolden_fig12);
}

TEST(GoldenSweeps, Fig12MatchesSeedThreaded) {
  EXPECT_EQ(sweep_csv("fig12", 4), kGolden_fig12);
}

TEST(GoldenSweeps, RvMatchesSeedSerial) {
  EXPECT_EQ(sweep_csv("rv", 1), kGolden_rv);
}

TEST(GoldenSweeps, RvMatchesSeedThreaded) {
  EXPECT_EQ(sweep_csv("rv", 4), kGolden_rv);
}

/// RAII decode-cache disable (restores the env-derived default on exit).
struct BbCacheOff {
  BbCacheOff() { bbcache_set_enabled(false); }
  ~BbCacheOff() { bbcache_reset_enabled(); }
};

// The decode cache must be output-invisible: with template replay disabled
// (every record re-cracked, the HCSIM_BBCACHE=0 path) the goldens still
// reproduce byte-for-byte — cache-on and cache-off runs share feed_record,
// so any divergence is a template purity bug.
TEST(GoldenSweeps, Fig06MatchesSeedCacheDisabled) {
  BbCacheOff off;
  EXPECT_EQ(sweep_csv("fig06", 1), kGolden_fig06);
}

TEST(GoldenSweeps, Fig12MatchesSeedCacheDisabled) {
  BbCacheOff off;
  EXPECT_EQ(sweep_csv("fig12", 1), kGolden_fig12);
}

TEST(GoldenSweeps, RvMatchesSeedCacheDisabledThreaded) {
  BbCacheOff off;
  EXPECT_EQ(sweep_csv("rv", 4), kGolden_rv);
}

// Cross-check without goldens: the cumulative sweep (every steering-ladder
// rung, so every invalidation edge between configs) emits identical CSVs
// with the cache enabled and disabled.
TEST(GoldenSweeps, CumulativeCacheOnOffIdentical) {
  const std::string with_cache = sweep_csv("cumulative", 1);
  BbCacheOff off;
  EXPECT_EQ(sweep_csv("cumulative", 1), with_cache);
}

// The NREADY range probes behind the goldens must classify every gap
// exactly: a nonzero truncation count means the GC horizon clipped a probe
// and the imbalance statistics silently degraded to a lower bound.
TEST(GoldenSweeps, HelperSweepHasNoNreadyTruncation) {
  const Trace t = generate_trace(spec_profile("gcc"), 30000);
  const SimResult r = simulate(helper_machine(steering_888()), t);
  EXPECT_EQ(r.counters.get("nready_truncations"), 0u);
}

}  // namespace
}  // namespace hcsim::exp
