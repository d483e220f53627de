#include "core/outcome_model.hpp"

#include "bbcache/bb_cache.hpp"
#include "util/log.hpp"

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
  kind_.reserve(program.uops.size());
  for (const StaticUop& su : program.uops) {
    // The pipeline's own crack: these three facts do not depend on steering.
    const UopTemplate t = build_uop_template(su, SteeringConfig{}, width_bits_);
    kind_.push_back(static_cast<u8>((t.tracked ? kTracked : 0) | (t.is_mem ? kMem : 0) |
                                    (t.is_branch_cond ? kBranchCond : 0)));
  }
}

void OutcomeModel::run(std::span<const TraceRecord> recs, std::span<u8> out) {
  HCSIM_CHECK(out.size() >= recs.size(), "OutcomeModel::run: one outcome byte per record");
  for (std::size_t i = 0; i < recs.size(); ++i) {
    const TraceRecord& r = recs[i];
    const u8 lanes = width_lanes(r, width_bits_);
    const u8 kind = kind_[r.pc];
    // Predicted before this record trains, as at rename.
    const WidthPredictor::Prediction p = wpred_.predict_result(r.pc);
    if (kind & kTracked) wpred_.train_result(r.pc, Outcome::result_narrow(lanes));
    unsigned event = 0;
    if (kind & kMem) {
      event = static_cast<unsigned>(probe_hierarchy(dl0_, ul1_, r.mem_addr));
    } else if (kind & kBranchCond) {
      event = bpred_.predict(r.pc) != r.taken;
      bpred_.update(r.pc, r.taken);
    }
    out[i] = static_cast<u8>(lanes | (unsigned{p.narrow} << Outcome::kPredNarrowBit) |
                             (unsigned{p.confident} << Outcome::kConfidentBit) |
                             (event << Outcome::kEventShift));
  }
}

SharedOutcomes shared_outcomes(std::span<const MachineConfig> cfgs, const Trace& trace) {
  SharedOutcomes shared;
  shared.of = outcome_classes(cfgs);
  for (std::size_t k = 0; k < cfgs.size(); ++k) {
    if (shared.of[k] < shared.arrays.size()) continue;
    shared.arrays.emplace_back(trace.records.size());
    OutcomeModel(cfgs[k], trace.program).run(trace.records, shared.arrays.back());
  }
  return shared;
}

}  // namespace hcsim
