#include "sample/record_stream.hpp"

#include <span>

#include "rv/kernels.hpp"
#include "sim/simulator.hpp"
#include "util/log.hpp"
#include "wload/executor.hpp"
#include "wload/program_gen.hpp"

namespace hcsim::sample {

namespace {

/// Materialized trace: ranges are plain index slices.
class TraceRecordStream final : public RecordStream {
 public:
  explicit TraceRecordStream(const Trace& trace) : trace_(trace) {}

  const Program& program() const override { return trace_.program; }

  void feed_range(u64 begin, u64 end, const RecordSink& sink) override {
    const u64 stop = std::min<u64>(end, trace_.records.size());
    for (u64 i = begin; i < stop; ++i) sink(trace_.records[i]);
  }

  bool try_rewind(u64 pos) override {
    (void)pos;  // index slices carry no position state
    return true;
  }

 private:
  const Trace& trace_;
};

/// Generator chunk size for sampled streams. A window's records are copied
/// on into the simulator's own span buffer, so a chunk only has to amortize
/// the cursor call; a full kTraceChunkRecords chunk would add 2 MB of live
/// records to every stream.
constexpr std::size_t kCursorChunkRecords = 4096;

/// Synthetic generator: a ProgramTraceCursor interpreted on demand. Seeking
/// forward steps the interpreter without building records
/// (ProgramTraceCursor::skip), but skipped periods are not free: every
/// skipped record is still interpreted. In the traced paper-scale sampled
/// fig12 benchmark (10M µops, 5 windows of 100k, 15.2 records skipped per
/// record simulated; 4-vCPU VM) generation took 65-67% of the job time when
/// seeks built and dropped records, and still takes 60% with skip.
class CursorRecordStream final : public RecordStream {
 public:
  CursorRecordStream(const WorkloadProfile& profile, u64 n_records)
      : cursor_(std::make_unique<ProgramTraceCursor>(generate_program(profile), profile,
                                                     n_records, kCursorChunkRecords)) {}

  const Program& program() const override { return cursor_->program(); }

  void feed_range(u64 begin, u64 end, const RecordSink& sink) override {
    HCSIM_CHECK(begin >= pos_, "CursorRecordStream: backward seek");
    if (begin > pos_) {
      note_forward_seek("generator", begin - pos_);
      // Drop the rest of the current chunk, then step over the remainder.
      const u64 dropped = std::min<u64>(begin - pos_, chunk_.size() - off_);
      off_ += dropped;
      pos_ += dropped;
      pos_ += cursor_->skip(begin - pos_);
      if (pos_ < begin) return;  // trace exhausted during the seek
    }
    while (pos_ < end) {
      if (off_ >= chunk_.size()) {
        chunk_ = cursor_->next_chunk();
        off_ = 0;
        if (chunk_.empty()) return;  // trace exhausted: deliver short
      }
      const std::size_t n = std::min<u64>(chunk_.size() - off_, end - pos_);
      for (std::size_t i = 0; i < n; ++i) sink(chunk_[off_ + i]);
      off_ += n;
      pos_ += n;
    }
  }

 private:
  std::unique_ptr<ProgramTraceCursor> cursor_;  // not movable: heap-pinned
  std::span<const TraceRecord> chunk_;
  std::size_t off_ = 0;
  u64 pos_ = 0;
};

/// Checkpoint cadence for the RV kernel stream: one executor-state snapshot
/// per window entry, but never closer together than this many µops (each
/// snapshot copies the machine's memory, ExecLimits::mem_bytes).
constexpr u64 kCheckpointInterval = 1u << 20;
/// Snapshot count cap; on overflow every second checkpoint is dropped,
/// doubling the effective spacing (memory stays bounded, rewinds stay
/// O(spacing) instead of O(begin)).
constexpr std::size_t kMaxCheckpoints = 32;

/// RV kernel: a resumable executor cursor. The machine persists across
/// feed_range calls (seeks cost O(gap), not O(begin)), and window-entry
/// checkpoints make the stream rewindable — a backward range restores the
/// nearest snapshot at or below the target instead of re-executing from the
/// kernel entry point.
class KernelRecordStream final : public RecordStream {
 public:
  /// The first n_records µops of the kernel, cut at an instruction boundary
  /// like rv::kernel_trace(kernel, n_records).
  KernelRecordStream(const std::string& kernel, u64 n_records)
      : stream_(rv::open_kernel_stream(kernel)),
        n_records_(n_records),
        cursor_(stream_.binary, stream_.cracked, n_records) {}

  const Program& program() const override { return stream_.cracked.program; }

  void feed_range(u64 begin, u64 end, const RecordSink& sink) override {
    HCSIM_CHECK(begin >= cursor_.position(),
                "KernelRecordStream: backward seek (call try_rewind first)");
    if (begin > cursor_.position())
      note_forward_seek("rv-kernel", begin - cursor_.position());
    maybe_checkpoint(begin);
    const rv::RvTraceInfo info = cursor_.pump_range(begin, end, sink);
    HCSIM_CHECK(info.error.empty(), "rv executor trapped: " + info.error);
  }

  bool try_rewind(u64 pos) override {
    if (pos >= cursor_.position()) return true;  // no progress to undo
    const rv::RvStreamCursor::Checkpoint* best = nullptr;
    for (const auto& c : ckpts_)
      if (c.pos <= pos && (!best || c.pos > best->pos)) best = &c;
    if (best) {
      cursor_.restore(*best);
    } else {
      // Entry state is an implicit checkpoint at position 0.
      cursor_ = rv::RvStreamCursor(stream_.binary, stream_.cracked, n_records_);
    }
    return true;
  }

 private:
  /// Snapshot the cursor at a window entry: advance (executing + discarding)
  /// to `begin`, then save, respecting spacing and count caps.
  void maybe_checkpoint(u64 begin) {
    if (!ckpts_.empty() && begin < ckpts_.back().pos + kCheckpointInterval) return;
    if (begin == 0) return;  // the fresh-cursor fallback already covers 0
    cursor_.pump_range(begin, begin, [](const TraceRecord&) {});
    if (cursor_.position() < begin) return;  // stream ended before `begin`
    if (ckpts_.size() == kMaxCheckpoints) {
      std::vector<rv::RvStreamCursor::Checkpoint> thinned;
      for (std::size_t i = 0; i < ckpts_.size(); i += 2)
        thinned.push_back(std::move(ckpts_[i]));
      ckpts_ = std::move(thinned);
    }
    ckpts_.push_back(cursor_.checkpoint());
  }

  rv::KernelStream stream_;
  u64 n_records_;
  rv::RvStreamCursor cursor_;  // borrows stream_: declared after it
  std::vector<rv::RvStreamCursor::Checkpoint> ckpts_;  // pos ascending
};

}  // namespace

void note_forward_seek(const char* backend, u64 n_discard) {
  if (n_discard < kSeekWarnThreshold) return;
  log_warn_once(std::string("forward-seek:") + backend,
                std::string(backend) + " stream seek discarded " +
                    std::to_string(n_discard) +
                    " records (forward-only backend; consider the shared-memory "
                    "bus or wider sampling periods)");
}

std::unique_ptr<RecordStream> open_trace_stream(const Trace& trace) {
  return std::make_unique<TraceRecordStream>(trace);
}

StreamFactory workload_stream_factory(const WorkloadProfile& profile, u64 n_records) {
  if (n_records <= stream_threshold()) {
    // CI-sized runs share the process-wide materialized trace (stable
    // reference for the process lifetime) — windows slice it for free.
    const Trace& trace = cached_trace(profile, n_records);
    return [&trace] { return open_trace_stream(trace); };
  }
  if (!profile.rv_kernel.empty()) {
    const std::string kernel = profile.rv_kernel;
    return [kernel, n_records]() -> std::unique_ptr<RecordStream> {
      return std::make_unique<KernelRecordStream>(kernel, n_records);
    };
  }
  const WorkloadProfile prof = profile;
  return [prof, n_records]() -> std::unique_ptr<RecordStream> {
    return std::make_unique<CursorRecordStream>(prof, n_records);
  };
}

}  // namespace hcsim::sample
