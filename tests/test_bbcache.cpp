// Decode-and-steer cache (src/bbcache) invariants:
//   - templates are a pure function of (StaticUop, SteeringConfig, width)
//   - rebinding a shared cache under a new key invalidates (and counts it)
//   - a cache shared across programs/configs is output-identical to private
//     caches and to no cache at all (aliased PCs must never leak templates)
//   - batch boundaries are invisible: one-record batches match one batch
//   - WidthLaneBlock classification matches per-value is_narrow
// The suite runs under the ASan/UBSan CI job, which is what backs the
// bounds-comment on WidthLaneBlock's unchecked accessors.
#include <gtest/gtest.h>

#include <span>

#include "bbcache/bb_cache.hpp"
#include "core/pipeline.hpp"
#include "rv/kernels.hpp"
#include "sim/simulator.hpp"
#include "util/narrow.hpp"

namespace hcsim {
namespace {

constexpr u64 kLen = 6000;  // not a WidthLaneBlock multiple: exercises the tail

/// All output-visible result fields — everything except the bb_cache_*
/// counters, which describe the cache itself and legitimately differ
/// between cache-on and cache-off runs.
void expect_same_output(const SimResult& a, const SimResult& b) {
  EXPECT_EQ(a.uops, b.uops);
  EXPECT_EQ(a.final_tick, b.final_tick);
  EXPECT_EQ(a.to_helper, b.to_helper);
  EXPECT_EQ(a.to_wide, b.to_wide);
  EXPECT_EQ(a.br_steered, b.br_steered);
  EXPECT_EQ(a.cr_steered, b.cr_steered);
  EXPECT_EQ(a.split_uops, b.split_uops);
  EXPECT_EQ(a.copies, b.copies);
  EXPECT_EQ(a.copies_w2n, b.copies_w2n);
  EXPECT_EQ(a.copies_n2w, b.copies_n2w);
  EXPECT_EQ(a.copy_prefetches, b.copy_prefetches);
  EXPECT_EQ(a.wp_correct, b.wp_correct);
  EXPECT_EQ(a.wp_nonfatal, b.wp_nonfatal);
  EXPECT_EQ(a.wp_fatal, b.wp_fatal);
  EXPECT_EQ(a.cr_violations, b.cr_violations);
  EXPECT_EQ(a.branches, b.branches);
  EXPECT_EQ(a.branch_mispredicts, b.branch_mispredicts);
  EXPECT_EQ(a.nready_w2n, b.nready_w2n);
  EXPECT_EQ(a.nready_n2w, b.nready_n2w);
  for (std::size_t i = 0; i < kNumCounters; ++i) {
    const Counter c = static_cast<Counter>(i);
    if (c == Counter::kBbCacheHits || c == Counter::kBbCacheMisses ||
        c == Counter::kBbCacheInvalidations)
      continue;
    EXPECT_EQ(a.counters.get(c), b.counters.get(c)) << counter_name(c);
  }
}

SimResult run_batched(const MachineConfig& cfg, const Trace& t, DecodeCache* cache) {
  Pipeline p(cfg, t.program, cache);
  p.feed(std::span<const TraceRecord>(t.records));
  return p.finish();
}

TEST(BbCache, TemplateBuildIsPure) {
  const Trace t = cached_trace(spec_profile("gcc"), kLen);
  const SteeringConfig steer = steering_888_br_lr_cr();
  for (const StaticUop& su : t.program.uops) {
    const UopTemplate a = build_uop_template(su, steer, 8);
    const UopTemplate b = build_uop_template(su, steer, 8);
    EXPECT_EQ(a.uop, b.uop);
    EXPECT_EQ(a.srcs, b.srcs);
    EXPECT_EQ(a.width_srcs, b.width_srcs);
    EXPECT_EQ(a.width_lane, b.width_lane);
    EXPECT_EQ(a.n_srcs, b.n_srcs);
    EXPECT_EQ(a.n_width_srcs, b.n_width_srcs);
    EXPECT_EQ(a.width_lane_mask, b.width_lane_mask);
    EXPECT_EQ(a.dst, b.dst);
    EXPECT_EQ(a.has_dst, b.has_dst);
    EXPECT_EQ(a.has_imm, b.has_imm);
    EXPECT_EQ(a.imm_narrow, b.imm_narrow);
    EXPECT_EQ(a.imm, b.imm);
    EXPECT_EQ(a.static_wide, b.static_wide);
    EXPECT_EQ(a.wants_cr, b.wants_cr);
    EXPECT_EQ(a.splittable, b.splittable);
    EXPECT_EQ(a.tracked, b.tracked);
  }
}

TEST(BbCache, SteeringRebindInvalidatesAndStaysIdentical) {
  const Trace t = cached_trace(spec_profile("gcc"), kLen);
  const MachineConfig cfg_a = helper_machine(steering_888());
  const MachineConfig cfg_b = helper_machine(steering_888_br_lr_cr());

  DecodeCache shared(/*enabled=*/true);
  const SimResult a1 = run_batched(cfg_a, t, &shared);
  EXPECT_EQ(a1.counters.get(Counter::kBbCacheInvalidations), 0u);
  EXPECT_GT(a1.counters.get(Counter::kBbCacheMisses), 0u);
  EXPECT_GT(a1.counters.get(Counter::kBbCacheHits), 0u);

  // New steering rung, same program: every cached template must drop — a
  // stale template would replay config-A verdicts under config B.
  const SimResult b1 = run_batched(cfg_b, t, &shared);
  EXPECT_GT(b1.counters.get(Counter::kBbCacheInvalidations), 0u);
  DecodeCache fresh_b(/*enabled=*/true);
  expect_same_output(b1, run_batched(cfg_b, t, &fresh_b));

  // Same PC set re-cracked after the invalidation: the miss count of the
  // post-rebind run proves re-cracking, not stale replay.
  EXPECT_EQ(b1.counters.get(Counter::kBbCacheMisses), shared.filled());

  // Rebinding with an unchanged key keeps the templates: all hits, no
  // misses, no invalidations.
  const SimResult b2 = run_batched(cfg_b, t, &shared);
  EXPECT_EQ(b2.counters.get(Counter::kBbCacheInvalidations), 0u);
  EXPECT_EQ(b2.counters.get(Counter::kBbCacheMisses), 0u);
  EXPECT_EQ(b2.counters.get(Counter::kBbCacheHits), t.records.size());
  expect_same_output(b1, b2);
}

TEST(BbCache, AliasedPcsAcrossKernelsShareOneCache) {
  // Two different RV kernels: PC k in one program is a different static µop
  // than PC k in the other (PCs alias). A cache shared across both — the
  // worst case a sweep driver can produce — must rebind per program and
  // still match private-cache runs exactly.
  const auto& kernels = rv::bundled_kernels();
  ASSERT_GE(kernels.size(), 2u);
  const Trace ta = rv::kernel_trace(kernels[0].name, kLen);
  const Trace tb = rv::kernel_trace(kernels[1].name, kLen);
  const MachineConfig cfg = helper_machine(steering_888_br_lr_cr());

  DecodeCache shared(/*enabled=*/true);
  const SimResult a_shared = run_batched(cfg, ta, &shared);
  const SimResult b_shared = run_batched(cfg, tb, &shared);   // rebind a->b
  const SimResult a_again = run_batched(cfg, ta, &shared);    // rebind b->a
  EXPECT_GT(b_shared.counters.get(Counter::kBbCacheInvalidations), 0u);
  EXPECT_GT(a_again.counters.get(Counter::kBbCacheInvalidations), 0u);

  DecodeCache pa(/*enabled=*/true), pb(/*enabled=*/true);
  expect_same_output(a_shared, run_batched(cfg, ta, &pa));
  expect_same_output(b_shared, run_batched(cfg, tb, &pb));
  expect_same_output(a_again, a_shared);
}

TEST(BbCache, BatchedScalarAndUncachedFeedsAgree) {
  const Trace t = cached_trace(spec_profile("gcc"), kLen);
  const MachineConfig cfg = helper_machine(steering_ir());

  DecodeCache c1(/*enabled=*/true);
  const SimResult batched = run_batched(cfg, t, &c1);

  Pipeline single(cfg, t.program);
  for (const TraceRecord& rec : t.records)
    single.feed(std::span<const TraceRecord>(&rec, 1));
  expect_same_output(batched, single.finish());

  DecodeCache off(/*enabled=*/false);
  const SimResult uncached = run_batched(cfg, t, &off);
  EXPECT_EQ(uncached.counters.get(Counter::kBbCacheHits), 0u);
  EXPECT_EQ(uncached.counters.get(Counter::kBbCacheMisses), 0u);
  expect_same_output(batched, uncached);
}

TEST(BbCache, WidthLaneBlockMatchesIsNarrow) {
  // Values straddling the 8-bit boundary in every lane position, plus a
  // partial tail block; accessors run over every index under ASan/UBSan.
  std::vector<TraceRecord> recs(WidthLaneBlock::kRecords + 37);
  u32 x = 0x9e3779b9u;
  for (std::size_t i = 0; i < recs.size(); ++i) {
    for (unsigned k = 0; k < kMaxSrcs; ++k) {
      x = x * 1664525u + 1013904223u;
      recs[i].src_vals[k] = (x & 1u) ? (x & 0x7Fu) : x;
    }
    x = x * 1664525u + 1013904223u;
    recs[i].result = (x & 2u) ? (x | 0x80000000u) : (x & 0xFFu);
  }
  for (std::size_t base = 0; base < recs.size(); base += WidthLaneBlock::kRecords) {
    const std::size_t n = std::min(recs.size() - base, WidthLaneBlock::kRecords);
    const std::span<const TraceRecord> sub(recs.data() + base, n);
    WidthLaneBlock block;
    block.classify(sub, 8);
    for (std::size_t i = 0; i < n; ++i) {
      u8 mask = 0;
      for (unsigned k = 0; k < kMaxSrcs; ++k) {
        EXPECT_EQ(block.src_narrow(i, k), is_narrow(sub[i].src_vals[k], 8));
        mask |= static_cast<u8>(is_narrow(sub[i].src_vals[k], 8)) << k;
      }
      EXPECT_EQ(block.result_narrow(i), is_narrow(sub[i].result, 8));
      EXPECT_EQ(block.src_mask(i), mask);
    }
  }
}

TEST(BbCache, EnableKnobOverride) {
  bbcache_set_enabled(false);
  EXPECT_FALSE(bbcache_enabled_default());
  EXPECT_FALSE(DecodeCache{}.enabled());
  bbcache_set_enabled(true);
  EXPECT_TRUE(bbcache_enabled_default());
  bbcache_reset_enabled();
  // Back to the environment default (enabled unless HCSIM_BBCACHE=0, which
  // the test harness does not set).
  EXPECT_TRUE(DecodeCache{}.enabled());
}

}  // namespace
}  // namespace hcsim
