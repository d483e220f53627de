#include "core/outcome_model.hpp"

#include "bbcache/bb_cache.hpp"
#include "util/log.hpp"
#include "util/narrow.hpp"

namespace hcsim {

OutcomeKey outcome_key(const MachineConfig& cfg) {
  OutcomeKey k;
  k.dl0_size = cfg.mem.dl0.size_bytes;
  k.dl0_line = cfg.mem.dl0.line_bytes;
  k.dl0_ways = cfg.mem.dl0.ways;
  k.ul1_size = cfg.mem.ul1.size_bytes;
  k.ul1_line = cfg.mem.ul1.line_bytes;
  k.ul1_ways = cfg.mem.ul1.ways;
  k.bpred_entries = cfg.bpred.entries;
  k.bpred_history_bits = cfg.bpred.history_bits;
  k.wpred_entries = cfg.wpred.entries;
  k.wpred_use_confidence = cfg.wpred.use_confidence;
  k.wpred_threshold = cfg.wpred.confidence_threshold;
  k.helper_width_bits = cfg.helper_width_bits;
  return k;
}

std::vector<std::size_t> outcome_classes(std::span<const MachineConfig> cfgs) {
  std::vector<OutcomeKey> keys;
  std::vector<std::size_t> classes;
  classes.reserve(cfgs.size());
  for (const MachineConfig& cfg : cfgs) {
    const OutcomeKey key = outcome_key(cfg);
    std::size_t m = 0;
    while (m < keys.size() && !(keys[m] == key)) ++m;
    if (m == keys.size()) keys.push_back(key);
    classes.push_back(m);
  }
  return classes;
}

OutcomeModel::OutcomeModel(const MachineConfig& cfg, const Program& program)
    : width_bits_(cfg.helper_width_bits),
      dl0_(cfg.mem.dl0),
      ul1_(cfg.mem.ul1),
      bpred_(cfg.bpred),
      wpred_(cfg.wpred) {
  static_.reserve(program.uops.size());
  for (const StaticUop& su : program.uops) {
    // The pipeline's own crack: these three facts do not depend on steering.
    const UopTemplate t = build_uop_template(su, SteeringConfig{}, width_bits_);
    static_.push_back({t.imm, static_cast<u8>((t.tracked ? kTracked : 0) | (t.is_mem ? kMem : 0) |
                                              (t.is_branch_cond ? kBranchCond : 0) |
                                              (t.cr_op ? kCrOp : 0))});
  }
}

void OutcomeModel::run(std::span<const TraceRecord> recs, std::span<u16> out) {
  HCSIM_CHECK(out.size() >= recs.size(), "OutcomeModel::run: one outcome per record");
  for (std::size_t i = 0; i < recs.size(); ++i) {
    const TraceRecord& r = recs[i];
    const u8 lanes = width_lanes(r, width_bits_);
    const StaticFacts su = static_[r.pc];
    // Predicted before this record trains, as at rename.
    const WidthPredictor::Prediction p = wpred_.predict_result(r.pc);
    if (su.kind & kTracked) wpred_.train_result(r.pc, Outcome::result_narrow(lanes));
    unsigned event = 0;
    if (su.kind & kMem) {
      event = static_cast<unsigned>(probe_hierarchy(dl0_, ul1_, r.mem_addr));
    } else if (su.kind & kBranchCond) {
      event = bpred_.predict(r.pc) != r.taken;
      bpred_.update(r.pc, r.taken);
    }
    // The CR carry check's operands: every source slot and the immediate,
    // each against the output a CR-steered µop would compute. No other
    // opcode is ever CR shaped.
    unsigned match = 0;
    if (su.kind & kCrOp) {
      const u32 output = (su.kind & kMem) ? r.mem_addr : r.result;
      match = unsigned{upper_bits_match(su.imm, output, width_bits_)} << Outcome::kImmSlot;
      for (unsigned k = 0; k < kMaxSrcs; ++k)
        match |= unsigned{upper_bits_match(r.src_vals[k], output, width_bits_)} << k;
    }
    out[i] = static_cast<u16>(lanes | (unsigned{p.narrow} << Outcome::kPredNarrowBit) |
                              (unsigned{p.confident} << Outcome::kConfidentBit) |
                              (event << Outcome::kEventShift) |
                              (match << Outcome::kMatchShift));
  }
}

u64 mark_jumps(std::span<const TraceRecord> recs, u64 next_pc, std::span<u16> out,
               std::vector<u32>& jumps) {
  HCSIM_CHECK(out.size() >= recs.size(), "mark_jumps: one outcome per record");
  for (std::size_t i = 0; i < recs.size(); ++i) {
    const u32 pc = recs[i].pc;
    if (pc != next_pc) {
      out[i] |= Outcome::kJump;
      jumps.push_back(pc);
    }
    next_pc = u64{pc} + 1;
  }
  return next_pc;
}

}  // namespace hcsim
