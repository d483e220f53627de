// hcsim — positioned record streams for windowed sampling.
//
// A RecordStream delivers arbitrary forward ranges [begin, end) of one
// deterministic dynamic trace. The windowed simulator slices a trace into
// warm-up/measure windows through this interface, which hides where the
// records come from:
//   - TraceRecordStream  — a materialized Trace (spans, free seeking)
//   - CursorRecordStream — the synthetic generator's pull cursor
//                          (seeks forward by stepping the interpreter
//                          without building records)
//   - KernelRecordStream — a resumable RV executor cursor (seeks execute
//                          and discard the gap)
// All three deliver bit-identical records for the same range, so a
// windowed run (one stream, windows in trace order) gives the same result
// on any of them.
#pragma once

#include <functional>
#include <memory>

#include "trace/trace.hpp"
#include "wload/profile.hpp"

namespace hcsim::sample {

using RecordSink = std::function<void(const TraceRecord&)>;

/// Forward-only positioned view of one deterministic record stream.
class RecordStream {
 public:
  virtual ~RecordStream() = default;

  /// The static program the records refer to. Stable for the stream's
  /// lifetime (a Pipeline holds a reference across a window).
  virtual const Program& program() const = 0;

  /// Push records [begin, end) into `sink`, in program order. `begin` must
  /// be at or after the furthest position already delivered (streams only
  /// move forward); ranges past the end of the trace are delivered short.
  virtual void feed_range(u64 begin, u64 end, const RecordSink& sink) = 0;
};

/// Forward-seek visibility (ROADMAP item 3): discarding more than this many
/// records to reach a range's begin logs a one-shot warning via
/// log_warn_once — the O(begin) seek cost is reported, never silent.
inline constexpr u64 kSeekWarnThreshold = 10'000'000;

/// Shared helper for forward-only backends: warn (once per stream kind) when
/// a seek is about to discard `n_discard` records.
void note_forward_seek(const char* backend, u64 n_discard);

/// Creates an independent stream over the same trace. Factories are
/// immutable and safe to invoke concurrently. A sampled pass opens one
/// stream, and a second when it falls back to a full run.
using StreamFactory = std::function<std::unique_ptr<RecordStream>()>;

/// Stream over a materialized trace. Borrows `trace`; the caller keeps it
/// alive for the stream's lifetime.
std::unique_ptr<RecordStream> open_trace_stream(const Trace& trace);

/// Factory for `profile`'s deterministic trace of `n_records` µops, routed
/// the same way simulate_workload routes full runs: a materialized cached
/// trace at or below stream_threshold() (held by the factory and by every
/// stream it opens), the synthetic generator cursor or
/// the RV kernel executor above it (O(chunk) memory). Every route delivers
/// the same records: an RV kernel still running at n_records ends at the
/// last instruction boundary at or below it, as rv::kernel_trace does.
StreamFactory workload_stream_factory(const WorkloadProfile& profile, u64 n_records);

}  // namespace hcsim::sample
