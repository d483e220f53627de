// hcsim — value-accurate dynamic µop traces.
//
// The paper's evaluation is trace driven (Section 3.1). A trace couples a
// static µop program with the dynamic stream produced by functionally
// executing it: every record carries the *actual* source and result values,
// so downstream consumers (width predictors, carry detection, steering)
// observe real data widths rather than sampled statistics.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "isa/uop.hpp"
#include "util/log.hpp"
#include "util/narrow.hpp"
#include "util/types.hpp"

namespace hcsim {

/// Shared chunk geometry: records per TraceCursor chunk. One constant so the
/// pull cursors (wload/executor.hpp), the streamed RV feed (sim/simulator)
/// and the pipeline's SoA batches cannot drift apart.
inline constexpr std::size_t kTraceChunkRecords = std::size_t{1} << 16;

/// One dynamic µop instance.
struct TraceRecord {
  u32 pc = 0;  // index of the StaticUop in the owning program
  std::array<u32, kMaxSrcs> src_vals = {0, 0, 0};
  u32 result = 0;    // value written to dst (undefined when !has_dst)
  u32 flags_val = 0; // value written to flags (undefined unless writes_flags)
  u32 mem_addr = 0;  // effective address (memory ops only)
  bool taken = false;  // conditional branch outcome
};

/// A static program: the µops plus branch targets.
struct Program {
  std::string name;
  std::vector<StaticUop> uops;
  std::vector<u32> branch_targets;  // parallel to uops; 0 unless branch

  u32 target_of(u32 pc) const {
    HCSIM_CHECK(pc < branch_targets.size(), "target_of: pc out of range");
    return branch_targets[pc];
  }
};

/// A full trace: program + dynamic stream + provenance.
struct Trace {
  Program program;
  std::vector<TraceRecord> records;
  u64 seed = 0;

  const StaticUop& uop_of(const TraceRecord& r) const {
    HCSIM_CHECK(r.pc < program.uops.size(), "uop_of: record pc out of range");
    return program.uops[r.pc];
  }
  std::size_t size() const { return records.size(); }
};

/// Structure-of-arrays width lanes over one sub-batch of trace records.
///
/// The per-record width classification (is every source value narrow? is the
/// result narrow?) depends only on the record's values and the helper width:
/// classify() runs a branchless pass over a block of records filling one
/// bitmask lane per record (width_lanes), which steering and training fold
/// against the static µop template's operand masks. The pipeline reads the
/// same lanes from its outcome bytes (core/outcome_model.hpp). One block
/// covers kRecords records; TraceCursor chunks are a whole multiple of it.
struct WidthLaneBlock {
  /// Records per block. Small enough to stay cache-resident between the
  /// classify pass and the consuming walk; divides kTraceChunkRecords so
  /// cursor chunks split into whole blocks.
  static constexpr std::size_t kRecords = 1024;
  static_assert(kTraceChunkRecords % kRecords == 0,
                "trace chunks must split into whole width-lane blocks");

  /// Lane bit for the result value (source k uses bit k).
  static constexpr unsigned kResultBit = kMaxSrcs;
  static constexpr u8 kSrcMask = (u8{1} << kMaxSrcs) - 1;

  /// lanes[i] bit k (k < kMaxSrcs): src_vals[k] of record i is narrow;
  /// bit kResultBit: the result value is narrow.
  std::array<u8, kRecords> lanes{};

  /// Classify `recs` (at most kRecords of them) against a `width_bits`-wide
  /// helper datapath. Every value is classified unconditionally — no operand
  /// masking, no branches — which is what lets the loop auto-vectorize.
  void classify(std::span<const TraceRecord> recs, unsigned width_bits);

  // Accessors use std::array::at-free indexing on the hot path; the bounds
  // are exercised under ASan/UBSan by tests/test_bbcache.cpp.
  bool src_narrow(std::size_t i, unsigned k) const { return (lanes[i] >> k) & 1u; }
  bool result_narrow(std::size_t i) const { return (lanes[i] >> kResultBit) & 1u; }
  /// The kMaxSrcs source-narrow bits of record i, for mask folds.
  u8 src_mask(std::size_t i) const { return lanes[i] & kSrcMask; }
};

/// One record's width lanes in WidthLaneBlock's layout: bit k (k < kMaxSrcs)
/// is set when src_vals[k] is narrow, bit kResultBit when the result is.
inline u8 width_lanes(const TraceRecord& r, unsigned width_bits) {
  u8 m = 0;
  for (unsigned k = 0; k < kMaxSrcs; ++k)
    m |= static_cast<u8>(is_narrow(r.src_vals[k], width_bits)) << k;
  return m | static_cast<u8>(static_cast<u8>(is_narrow(r.result, width_bits))
                             << WidthLaneBlock::kResultBit);
}

inline void WidthLaneBlock::classify(std::span<const TraceRecord> recs,
                                     unsigned width_bits) {
  HCSIM_CHECK(recs.size() <= kRecords, "WidthLaneBlock: block overflow");
  for (std::size_t i = 0; i < recs.size(); ++i) lanes[i] = width_lanes(recs[i], width_bits);
}

/// Streaming view of a dynamic µop stream: the pipeline pulls records
/// chunk-wise, so long runs (the paper's 100M-instruction windows) never
/// materialize a multi-GB std::vector<TraceRecord>. Records arrive in
/// program order; an empty chunk ends the stream.
class TraceCursor {
 public:
  virtual ~TraceCursor() = default;

  /// The static program the records refer to. Stable for the cursor's
  /// lifetime (the pipeline holds a reference across the whole run).
  virtual const Program& program() const = 0;

  /// Next chunk of records, valid until the next call. Empty = end.
  virtual std::span<const TraceRecord> next_chunk() = 0;
};

/// Cursor over a materialized trace: one chunk, zero copies.
class TraceVectorCursor final : public TraceCursor {
 public:
  explicit TraceVectorCursor(const Trace& trace) : trace_(trace) {}

  const Program& program() const override { return trace_.program; }

  std::span<const TraceRecord> next_chunk() override {
    if (done_) return {};
    done_ = true;
    return trace_.records;
  }

 private:
  const Trace& trace_;
  bool done_ = false;
};

/// Binary trace serialization (versioned, little-endian). Returns false on
/// I/O failure; `load_trace` additionally validates the header.
bool save_trace(const Trace& trace, const std::string& path);
bool load_trace(Trace& trace, const std::string& path);

}  // namespace hcsim
