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
// the same outcome key. An OutcomeModel works it out once, as one 16-bit
// outcome per record, and writes beside it the one value test the timing
// walk still needs: which operands agree with the µop's output above the
// helper width (the CR carry check). mark_jumps then flags the records
// whose pc does not follow the one before and lists their pcs, so any
// number of Pipelines walk the trace as those outcomes and that jump list
// alone (Pipeline::feed(outcomes, jumps)), and a cell need not keep its
// records (sample/outcome_pass.hpp). The carry and copy halves of the width
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
/// get equal outcomes from the same records, so they may share a model.
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

/// One record's outcome:
///   bits 0-3   the width lanes, laid out as width_lanes() lays them out;
///   bit 4      the width predictor's result prediction is narrow;
///   bit 5      ... and confident;
///   bits 6-7   the event: a memory µop's MemLevel, or 1 for a mispredicted
///              conditional branch; 0 otherwise;
///   bits 8-10  operand slot k's value agrees with the µop's output (its
///              mem_addr for a memory µop, else its result) on every bit
///              above the helper width (upper_bits_match), k = 0, 1, 2;
///   bit 11     the same test for the static µop's immediate;
///              bits 8-11 are set only for a µop whose opcode the CR
///              scheme may steer (UopTemplate::cr_op), the only µops
///              whose walk reads them;
///   bit 12     the record is a jump (mark_jumps): its pc is the next entry
///              of the walk's jump list, not the previous record's pc + 1.
struct Outcome {
  static constexpr unsigned kPredNarrowBit = 4;
  static constexpr unsigned kConfidentBit = 5;
  static constexpr unsigned kEventShift = 6;
  static constexpr unsigned kMatchShift = 8;
  /// The operand slot the immediate's match bit stands for.
  static constexpr unsigned kImmSlot = kMaxSrcs;
  static constexpr unsigned kJumpBit = kMatchShift + kImmSlot + 1;
  static constexpr u16 kJump = u16{1} << kJumpBit;
  static_assert(WidthLaneBlock::kResultBit < kPredNarrowBit, "lanes overlap");
  static_assert(kJumpBit < 16, "the jump bit overflows the outcome");

  static u8 src_lanes(u16 o) { return static_cast<u8>(o & WidthLaneBlock::kSrcMask); }
  static bool result_narrow(u16 o) { return (o >> WidthLaneBlock::kResultBit) & 1u; }
  static WidthPredictor::Prediction prediction(u16 o) {
    return {static_cast<bool>((o >> kPredNarrowBit) & 1u),
            static_cast<bool>((o >> kConfidentBit) & 1u)};
  }
  static MemLevel level(u16 o) { return static_cast<MemLevel>((o >> kEventShift) & 3u); }
  static bool mispredicted(u16 o) { return ((o >> kEventShift) & 3u) != 0; }
  /// Operand slot `slot` (kImmSlot: the immediate) agrees with the output
  /// above the helper width.
  static bool upper_match(u16 o, unsigned slot) { return (o >> (kMatchShift + slot)) & 1u; }
  static bool jump(u16 o) { return o & kJump; }
};

/// mark_jumps' `next_pc` before a walk's first record: no u32 pc equals it,
/// so that record is a jump.
inline constexpr u64 kWalkStart = ~u64{0};

/// Mark the jumps among `recs`, whose outcomes `out` holds: set
/// Outcome::kJumpBit of each record whose pc is not `next_pc`, the pc that
/// continues the record before it (kWalkStart before the first), and append
/// its pc to `jumps`. Returns the pc that continues the last record, so a
/// stream marked span by span gets the marks it gets whole. A walk reads
/// each record's pc back as pc = jump ? jumps[j++] : pc + 1.
u64 mark_jumps(std::span<const TraceRecord> recs, u64 next_pc, std::span<u16> out,
               std::vector<u32>& jumps);

class OutcomeModel {
 public:
  /// Cold tag arrays and predictors sized by `cfg`'s outcome key. Records
  /// run through the model index `program` by pc, as Pipeline's do.
  OutcomeModel(const MachineConfig& cfg, const Program& program);

  /// Walk `recs` in program order, writing one outcome per record to the
  /// front of `out`, which must hold at least recs.size() outcomes. The
  /// jump bit is left clear (mark_jumps sets it). Splitting a stream into
  /// calls differently writes the same outcomes.
  void run(std::span<const TraceRecord> recs, std::span<u16> out);

 private:
  // Per-pc static facts the walk branches on.
  static constexpr u8 kTracked = 1;     // trains the result predictor
  static constexpr u8 kMem = 2;         // probes the tag arrays
  static constexpr u8 kBranchCond = 4;  // trains the branch predictor
  static constexpr u8 kCrOp = 8;        // gets the CR match bits
  struct StaticFacts {
    u32 imm = 0;  // the immediate, for its match bit
    u8 kind = 0;
  };

  std::vector<StaticFacts> static_;
  unsigned width_bits_;
  Cache dl0_;
  Cache ul1_;
  BranchPredictor bpred_;
  WidthPredictor wpred_;  // result bits only
};

}  // namespace hcsim
