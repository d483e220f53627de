// Streaming trace interface: chunk-wise record delivery must be invisible —
// the generated stream, and every statistic the pipeline derives from it,
// is bit-identical to the materialized-vector path.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

#include "expect_result.hpp"
#include "rv/kernels.hpp"
#include "sim/simulator.hpp"
#include "wload/program_gen.hpp"

namespace hcsim {
namespace {

constexpr u64 kLen = 20000;

bool records_equal(const TraceRecord& a, const TraceRecord& b) {
  return a.pc == b.pc && a.src_vals == b.src_vals && a.result == b.result &&
         a.flags_val == b.flags_val && a.mem_addr == b.mem_addr && a.taken == b.taken;
}

void expect_same_result(const SimResult& a, const SimResult& b) {
  EXPECT_EQ(a.workload, b.workload);
  expect_identical(a, b);
}

TEST(Streaming, CursorReproducesExecuteProgram) {
  const WorkloadProfile& prof = spec_profile("gcc");
  const Program program = generate_program(prof);
  const Trace trace = execute_program(program, prof, kLen);

  // An odd chunk size exercises chunk-boundary state carry-over.
  ProgramTraceCursor cursor(program, prof, kLen, /*chunk_records=*/777);
  u64 i = 0;
  for (auto chunk = cursor.next_chunk(); !chunk.empty(); chunk = cursor.next_chunk()) {
    for (const TraceRecord& rec : chunk) {
      ASSERT_LT(i, trace.records.size());
      ASSERT_TRUE(records_equal(rec, trace.records[i])) << "record " << i;
      ++i;
    }
  }
  EXPECT_EQ(i, trace.records.size());
}

TEST(Streaming, CursorSkipMatchesGenerateAndDrop) {
  // skip(n) steps the interpreter without building records; the records
  // that follow must be exactly those a cursor that generated and dropped
  // the same records delivers. Cases: n = 0 at the start and mid-chunk, a
  // skip across a chunk boundary, and skips to and past the end.
  const WorkloadProfile& prof = spec_profile("gcc");
  const Program program = generate_program(prof);
  constexpr std::size_t kChunk = 777;
  const auto drain = [](ProgramTraceCursor& cursor) {
    std::vector<TraceRecord> out;
    for (auto chunk = cursor.next_chunk(); !chunk.empty(); chunk = cursor.next_chunk())
      out.insert(out.end(), chunk.begin(), chunk.end());
    return out;
  };
  ProgramTraceCursor reference(program, prof, kLen, kChunk);
  const std::vector<TraceRecord> all = drain(reference);
  ASSERT_EQ(all.size(), kLen);

  struct Case {
    int chunks_before;  // next_chunk() calls before the skip
    u64 n;
  };
  for (const Case c : {Case{0, 0}, Case{1, 0}, Case{0, 500}, Case{1, 1000},
                       Case{2, kLen - 2 * kChunk}, Case{1, kLen}}) {
    SCOPED_TRACE("chunks_before=" + std::to_string(c.chunks_before) +
                 " n=" + std::to_string(c.n));
    ProgramTraceCursor cursor(program, prof, kLen, kChunk);
    u64 pos = 0;
    for (int i = 0; i < c.chunks_before; ++i) pos += cursor.next_chunk().size();
    const u64 skipped = cursor.skip(c.n);
    EXPECT_EQ(skipped, std::min(c.n, kLen - pos));  // short only past the end
    pos += skipped;
    const std::vector<TraceRecord> rest = drain(cursor);
    ASSERT_EQ(rest.size(), kLen - pos);
    for (std::size_t i = 0; i < rest.size(); ++i)
      ASSERT_TRUE(records_equal(rest[i], all[pos + i])) << "record " << pos + i;
  }
}

TEST(Streaming, KernelStreamReproducesKernelTrace) {
  const Trace trace = rv::kernel_trace("crc32", kLen);
  const rv::KernelStream stream = rv::open_kernel_stream("crc32");
  ASSERT_EQ(stream.cracked.program.uops.size(), trace.program.uops.size());

  u64 i = 0;
  stream.pump(kLen, [&](const TraceRecord& rec) {
    ASSERT_LT(i, trace.records.size());
    ASSERT_TRUE(records_equal(rec, trace.records[i])) << "record " << i;
    ++i;
  });
  EXPECT_EQ(i, trace.records.size());
}

TEST(Streaming, SimulateStreamedMatchesMaterialized) {
  const WorkloadProfile& prof = spec_profile("bzip2");
  for (const MachineConfig& cfg :
       {monolithic_baseline(), helper_machine(steering_ir())}) {
    const SimResult materialized = simulate(cfg, cached_trace(prof, kLen));
    const SimResult streamed = simulate_streamed(cfg, prof, kLen);
    expect_same_result(materialized, streamed);
  }
}

TEST(Streaming, SimulateStreamedMatchesMaterializedRvKernel) {
  const WorkloadProfile prof = rv::rv_workload_profile("strlen");
  const MachineConfig cfg = helper_machine(steering_888_br_lr_cr());
  const SimResult materialized = simulate(cfg, cached_trace(prof, kLen));
  const SimResult streamed = simulate_streamed(cfg, prof, kLen);
  expect_same_result(materialized, streamed);
}

TEST(Streaming, SimulateWorkloadRoutesByThreshold) {
  // Below the threshold simulate_workload must agree with the cached path;
  // the streaming equivalence above makes the two branches interchangeable.
  const WorkloadProfile& prof = spec_profile("mcf");
  const MachineConfig cfg = monolithic_baseline();
  expect_same_result(simulate_workload(cfg, prof, kLen, sample::SampleSpec{}),
                     simulate(cfg, cached_trace(prof, kLen)));
}

TEST(Streaming, ThresholdBoundaryIsInvisible) {
  // Pin the routing boundary and run exactly at, one below and one above it:
  // 999/1000 take the cached-trace branch, 1001 the streaming branch. All
  // three must match the materialized simulation bit-for-bit — the boundary
  // may change memory behavior, never results.
  const char* old = std::getenv("HCSIM_STREAM_THRESHOLD");
  const std::string saved = old ? old : "";
  setenv("HCSIM_STREAM_THRESHOLD", "1000", 1);
  ASSERT_EQ(stream_threshold(), 1000u);

  const WorkloadProfile& prof = spec_profile("twolf");
  const MachineConfig cfg = helper_machine(steering_ir());
  for (u64 len : {u64{999}, u64{1000}, u64{1001}}) {
    const SimResult routed = simulate_workload(cfg, prof, len, sample::SampleSpec{});
    const SimResult materialized = simulate(cfg, cached_trace(prof, len));
    expect_same_result(materialized, routed);
  }

  if (old)
    setenv("HCSIM_STREAM_THRESHOLD", saved.c_str(), 1);
  else
    unsetenv("HCSIM_STREAM_THRESHOLD");
}

}  // namespace
}  // namespace hcsim
