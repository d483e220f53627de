#include "sample/outcome_pass.hpp"

namespace hcsim::sample {

OutcomePass::OutcomePass(std::span<const MachineConfig> cfgs, const Program& program)
    : key_of_(outcome_classes(cfgs)) {
  for (std::size_t k = 0; k < cfgs.size(); ++k)
    if (key_of_[k] == models_.size()) {
      models_.emplace_back(cfgs[k], program);
      outcomes_.emplace_back(kSpanRecords);
    }
  buf_.reserve(kSpanRecords);
  pcs_.resize(kSpanRecords);
}

void OutcomePass::pull(RecordStream& stream, u64 begin, u64 end,
                       const std::function<void()>& on_span) {
  stream.feed_range(begin, end, [&](const TraceRecord& rec) {
    buf_.push_back(rec);
    if (buf_.size() == kSpanRecords) flush(on_span);
  });
  flush(on_span);
}

void OutcomePass::flush(const std::function<void()>& on_span) {
  if (buf_.empty()) return;
  const std::span<const TraceRecord> recs(buf_);
  for (std::size_t m = 0; m < models_.size(); ++m) models_[m].run(recs, outcomes_[m]);
  for (std::size_t i = 0; i < recs.size(); ++i) pcs_[i] = recs[i].pc;
  n_ = recs.size();
  on_span();
  fed_ += n_;
  buf_.clear();
}

OutcomeTrace outcome_trace(std::span<const MachineConfig> cfgs, RecordStream& stream,
                           u64 n_records) {
  OutcomeTrace t;
  t.program = stream.program();
  OutcomePass pass(cfgs, t.program);
  for (std::size_t k = 0; k < cfgs.size(); ++k) t.key_of.push_back(pass.key_of(k));
  t.pcs.reserve(n_records);
  t.outcomes.resize(pass.keys());
  for (std::vector<u16>& o : t.outcomes) o.reserve(n_records);
  pass.pull(stream, 0, n_records, [&] {
    t.pcs.insert(t.pcs.end(), pass.pcs().begin(), pass.pcs().end());
    for (std::size_t m = 0; m < pass.keys(); ++m)
      t.outcomes[m].insert(t.outcomes[m].end(), pass.outcomes(m).begin(),
                           pass.outcomes(m).end());
  });
  return t;
}

}  // namespace hcsim::sample
