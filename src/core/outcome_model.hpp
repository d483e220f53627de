// hcsim — the per-record outcomes that every config of a cell shares.
//
// Four structures of the modeled machine see only the program order of a
// trace, never its timing:
//   * the DL0/UL1 tag arrays, whose LRU is stamped from an access counter;
//   * the gshare branch predictor, which sees (pc, taken);
//   * the result half of the width predictor, which sees (pc, result width);
//   * the width-lane classification, which sees the values and the helper
//     width.
// Their verdict on each record is therefore the same for every config with
// the same outcome key. An OutcomeModel works it out once, as one byte per
// record, and any number of Pipelines walk the trace against those bytes
// (Pipeline::feed(records, outcomes)). The carry and copy halves of the width
// predictor stay in each pipeline: what trains them depends on steering.
#pragma once

#include <span>
#include <vector>

#include "core/machine_config.hpp"
#include "mem/cache.hpp"
#include "mem/memory_system.hpp"
#include "predict/branch_predictor.hpp"
#include "predict/width_predictor.hpp"
#include "trace/trace.hpp"
#include "util/types.hpp"

namespace hcsim {

/// The MachineConfig fields an OutcomeModel reads. Configs with equal keys
/// get equal outcome bytes from the same records, so they may share a model.
struct OutcomeKey {
  u32 dl0_size = 0, dl0_line = 0, dl0_ways = 0;
  u32 ul1_size = 0, ul1_line = 0, ul1_ways = 0;
  u32 bpred_entries = 0, bpred_history_bits = 0;
  u32 wpred_entries = 0;
  bool wpred_use_confidence = false;
  u8 wpred_threshold = 0;
  unsigned helper_width_bits = 0;

  bool operator==(const OutcomeKey&) const = default;
};

OutcomeKey outcome_key(const MachineConfig& cfg);

/// For each of `cfgs`, the index of its outcome key among the distinct keys
/// of `cfgs`, numbered in order of first appearance.
std::vector<std::size_t> outcome_classes(std::span<const MachineConfig> cfgs);

/// One record's outcome byte:
///   bits 0-3  the width lanes, laid out as width_lanes() lays them out;
///   bit 4     the width predictor's result prediction is narrow;
///   bit 5     ... and confident;
///   bits 6-7  the event: a memory µop's MemLevel, or 1 for a mispredicted
///             conditional branch; 0 otherwise.
struct Outcome {
  static constexpr unsigned kPredNarrowBit = 4;
  static constexpr unsigned kConfidentBit = 5;
  static constexpr unsigned kEventShift = 6;
  static_assert(WidthLaneBlock::kResultBit < kPredNarrowBit, "lanes overlap");

  static u8 src_lanes(u8 o) { return o & WidthLaneBlock::kSrcMask; }
  static bool result_narrow(u8 o) { return (o >> WidthLaneBlock::kResultBit) & 1u; }
  static WidthPredictor::Prediction prediction(u8 o) {
    return {static_cast<bool>((o >> kPredNarrowBit) & 1u),
            static_cast<bool>((o >> kConfidentBit) & 1u)};
  }
  static MemLevel level(u8 o) { return static_cast<MemLevel>(o >> kEventShift); }
  static bool mispredicted(u8 o) { return (o >> kEventShift) != 0; }
};

/// Outcome bytes over a whole trace for a list of configs: one array per
/// distinct outcome key.
struct SharedOutcomes {
  std::vector<std::vector<u8>> arrays;
  std::vector<std::size_t> of;  // per config, the index of its array

  /// Config k's outcome bytes.
  std::span<const u8> operator[](std::size_t k) const { return arrays[of[k]]; }
};

/// One OutcomeModel per distinct outcome key of `cfgs`, run over `trace`.
/// Each model is dropped once its array is written, so only the arrays
/// (one byte per record each) stay alive.
SharedOutcomes shared_outcomes(std::span<const MachineConfig> cfgs, const Trace& trace);

class OutcomeModel {
 public:
  /// Cold tag arrays and predictors sized by `cfg`'s outcome key. Records
  /// run through the model index `program` by pc, as Pipeline's do.
  OutcomeModel(const MachineConfig& cfg, const Program& program);

  /// Walk `recs` in program order, writing one outcome byte per record to
  /// the front of `out`, which must hold at least recs.size() bytes.
  /// Splitting a stream into calls differently writes the same bytes.
  void run(std::span<const TraceRecord> recs, std::span<u8> out);

 private:
  // Per-pc static facts the walk branches on.
  static constexpr u8 kTracked = 1;     // trains the result predictor
  static constexpr u8 kMem = 2;         // probes the tag arrays
  static constexpr u8 kBranchCond = 4;  // trains the branch predictor

  std::vector<u8> kind_;
  unsigned width_bits_;
  Cache dl0_;
  Cache ul1_;
  BranchPredictor bpred_;
  WidthPredictor wpred_;  // result bits only
};

}  // namespace hcsim
