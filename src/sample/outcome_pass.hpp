// hcsim — a record stream run through the outcome models of a config list.
//
// The configs of a cell read one trace, and configs with the same outcome
// key read the same outcomes of it (core/outcome_model.hpp). An OutcomePass
// pulls a stream's records in spans through one OutcomeModel per distinct
// key and hands each span on as what a timing walk reads: per key, its
// outcomes, and the pcs of its jumps (mark_jumps). Two consumers share it:
//   * a sampled pass (windowed.cpp) feeds every config's pipeline each span
//     as it comes;
//   * an unsampled cached sweep cell keeps the spans (outcome_trace), so
//     its configs' walks run on 2 × keys bytes per record plus 4 per jump
//     instead of the 32-byte records, and the records themselves are never
//     stored.
#pragma once

#include <cstddef>
#include <functional>
#include <span>
#include <vector>

#include "core/machine_config.hpp"
#include "core/outcome_model.hpp"
#include "sample/record_stream.hpp"
#include "trace/trace.hpp"
#include "util/types.hpp"

namespace hcsim::sample {

class OutcomePass {
 public:
  /// Records per span.
  static constexpr std::size_t kSpanRecords = 4096;

  /// Cold models, one per distinct outcome key of `cfgs`, over `program`.
  OutcomePass(std::span<const MachineConfig> cfgs, const Program& program);

  /// Distinct outcome keys, numbered as outcome_classes() numbers them.
  std::size_t keys() const { return models_.size(); }
  /// The key of cfgs[k].
  std::size_t key_of(std::size_t k) const { return key_of_[k]; }

  /// Pull records [begin, end) of `stream` (fewer when the trace ends
  /// first) through every model, in spans of at most kSpanRecords, calling
  /// `on_span` once each span's jumps() and outcomes() are written. The
  /// first record of a pull is a jump, so a walk may start at any pull.
  void pull(RecordStream& stream, u64 begin, u64 end, const std::function<void()>& on_span);

  /// The current span's jumps, and key `m`'s outcomes of it.
  std::span<const u32> jumps() const { return jumps_; }
  std::span<const u16> outcomes(std::size_t m) const {
    return std::span<const u16>(outcomes_[m]).first(n_);
  }

  /// Records pulled so far.
  u64 fed() const { return fed_; }

 private:
  void flush(const std::function<void()>& on_span);

  std::vector<std::size_t> key_of_;
  std::vector<OutcomeModel> models_;
  std::vector<TraceRecord> buf_;
  std::vector<u32> jumps_;
  std::vector<std::vector<u16>> outcomes_;  // per key
  std::size_t n_ = 0;                       // records in the current span
  u64 next_pc_ = kWalkStart;                // mark_jumps' carried pc
  u64 fed_ = 0;
};

/// A trace as its timing walks read it: the program, the pc of every jump,
/// and per distinct outcome key of a config list every record's outcome.
struct OutcomeTrace {
  Program program;
  std::vector<u32> jumps;
  std::vector<std::vector<u16>> outcomes;  // per key
  std::vector<std::size_t> key_of;         // per config, its key

  /// Config k's outcomes.
  std::span<const u16> operator[](std::size_t k) const { return outcomes[key_of[k]]; }
};

/// The first `n_records` records of `stream` (fewer when it ends first) as
/// `cfgs` walk them: the span loop of an OutcomePass, kept. Only one span
/// of records is alive at a time.
OutcomeTrace outcome_trace(std::span<const MachineConfig> cfgs, RecordStream& stream,
                           u64 n_records);

}  // namespace hcsim::sample
