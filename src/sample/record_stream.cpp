#include "sample/record_stream.hpp"

#include <span>

#include "rv/kernels.hpp"
#include "sim/trace_cache.hpp"
#include "util/log.hpp"
#include "wload/executor.hpp"
#include "wload/program_gen.hpp"

namespace hcsim::sample {

namespace {

/// Materialized trace: ranges are plain index slices. `keep`, when set,
/// owns the trace, so the stream may outlive everything else that holds it.
class TraceRecordStream final : public RecordStream {
 public:
  explicit TraceRecordStream(const Trace& trace, TraceHandle keep = nullptr)
      : keep_(std::move(keep)), trace_(trace) {}

  const Program& program() const override { return trace_.program; }

  void feed_range(u64 begin, u64 end, const RecordSink& sink) override {
    const u64 stop = std::min<u64>(end, trace_.records.size());
    for (u64 i = begin; i < stop; ++i) sink(trace_.records[i]);
  }

 private:
  TraceHandle keep_;
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
/// record simulated; 4-vCPU VM) generation takes 54-55% of the job time,
/// 9.4-10.0 ns per record stepped over or built.
class CursorRecordStream final : public RecordStream {
 public:
  CursorRecordStream(const WorkloadProfile& profile, u64 n_records)
      : cursor_(generate_program(profile), profile, n_records, kCursorChunkRecords) {}

  const Program& program() const override { return cursor_.program(); }

  void feed_range(u64 begin, u64 end, const RecordSink& sink) override {
    HCSIM_CHECK(begin >= pos_, "CursorRecordStream: backward seek");
    if (begin > pos_) {
      note_forward_seek("generator", begin - pos_);
      // Drop the rest of the current chunk, then step over the remainder.
      const u64 dropped = std::min<u64>(begin - pos_, chunk_.size() - off_);
      off_ += dropped;
      pos_ += dropped;
      pos_ += cursor_.skip(begin - pos_);
      if (pos_ < begin) return;  // trace exhausted during the seek
    }
    while (pos_ < end) {
      if (off_ >= chunk_.size()) {
        chunk_ = cursor_.next_chunk();
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
  ProgramTraceCursor cursor_;
  std::span<const TraceRecord> chunk_;
  std::size_t off_ = 0;
  u64 pos_ = 0;
};

/// RV kernel: a resumable executor cursor. The machine persists across
/// feed_range calls, so a seek executes and discards only the gap since the
/// previous range, not the trace from its entry point.
class KernelRecordStream final : public RecordStream {
 public:
  /// The first n_records µops of the kernel, cut at an instruction boundary
  /// like rv::kernel_trace(kernel, n_records).
  KernelRecordStream(const std::string& kernel, u64 n_records)
      : stream_(rv::open_kernel_stream(kernel)),
        cursor_(stream_.binary, stream_.cracked, n_records) {}

  const Program& program() const override { return stream_.cracked.program; }

  void feed_range(u64 begin, u64 end, const RecordSink& sink) override {
    HCSIM_CHECK(begin >= cursor_.position(), "KernelRecordStream: backward seek");
    if (begin > cursor_.position())
      note_forward_seek("rv-kernel", begin - cursor_.position());
    const rv::RvTraceInfo info = cursor_.pump_range(begin, end, sink);
    HCSIM_CHECK(info.error.empty(), "rv executor trapped: " + info.error);
  }

 private:
  rv::KernelStream stream_;
  rv::RvStreamCursor cursor_;  // borrows stream_: declared after it
};

}  // namespace

void note_forward_seek(const char* backend, u64 n_discard) {
  if (n_discard < kSeekWarnThreshold) return;
  log_warn_once(std::string("forward-seek:") + backend,
                std::string(backend) + " stream seek discarded " +
                    std::to_string(n_discard) +
                    " records (forward-only backend; consider wider sampling "
                    "periods)");
}

std::unique_ptr<RecordStream> open_trace_stream(const Trace& trace) {
  return std::make_unique<TraceRecordStream>(trace);
}

StreamFactory workload_stream_factory(const WorkloadProfile& profile, u64 n_records) {
  if (n_records <= stream_threshold()) {
    // CI-sized runs share the cached materialized trace, which the factory
    // and every stream it opens hold — windows slice it for free.
    TraceHandle trace = acquire_trace(profile, n_records);
    return [trace]() -> std::unique_ptr<RecordStream> {
      return std::make_unique<TraceRecordStream>(*trace, trace);
    };
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
