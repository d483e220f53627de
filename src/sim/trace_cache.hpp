// hcsim — the shared trace cache.
//
// A generated trace is a deterministic function of its workload profile and
// length, so jobs that read the same (profile, length) key can share one
// copy. The cache gives each key one reference-counted trace: generated once
// while any handle to it exists, and freed when the last handle drops. Its
// memory therefore follows the jobs that read it — a sweep or a daemon batch
// holds each key from its first job to its last (TraceHolds) — instead of
// growing with every key a process has ever seen. cached_trace() is the one
// exception: a pinned handle for callers that want a reference for the
// whole process (figure benches, examples, tests).
#pragma once

#include <memory>
#include <mutex>
#include <vector>

#include "trace/trace.hpp"
#include "wload/profile.hpp"

namespace hcsim {

/// Shared ownership of one cached trace.
using TraceHandle = std::shared_ptr<const Trace>;

/// The trace of `profile` at `n_records` µops, keyed by the whole profile
/// and the length. The first acquirer of a key generates it and every
/// acquirer while a handle lives shares it; concurrent acquirers of one key
/// wait for one generation. Always materializes, whatever the length.
TraceHandle acquire_trace(const WorkloadProfile& profile, u64 n_records);

/// The same cache, pinned: the trace stays cached, and the reference
/// valid, for the process lifetime. For benches, examples and tests; a
/// product path holds an acquire_trace() handle instead, so its memory is
/// freed when its jobs end.
const Trace& cached_trace(const WorkloadProfile& profile, u64 n_records);

/// Trace length above which simulate_workload() streams records chunk-wise
/// from the generator instead of materializing a cached trace (a
/// paper-scale 100M-µop window is ~3GB of records). Overridable via the
/// HCSIM_STREAM_THRESHOLD environment variable, re-read on every call so
/// tests can move the boundary at runtime.
u64 stream_threshold();

/// Cache occupancy, for tests.
struct TraceCacheStats {
  std::size_t live = 0;  // traces a handle keeps alive, pinned ones excluded
  u64 generated = 0;     // traces generated since the process started
};
TraceCacheStats trace_cache_stats();

/// Holds on the cached traces of a batch of jobs. Every job's key is
/// counted before the batch starts (add); a key's trace is then held from
/// the begin() of the first of its jobs to the end() of the last, so the
/// key's jobs share one generation and the trace is freed as soon as the
/// last one ends. A job whose trace is streamed (longer than
/// stream_threshold() when the holds were made) takes no hold. begin() and
/// end() may be called from any thread, once each per job, begin() first;
/// a job that is skipped calls end() alone.
class TraceHolds {
 public:
  /// Count one more job, reading `profile`'s trace of `n_records` µops.
  /// Jobs are numbered 0, 1, ... in the order they are added.
  void add(const WorkloadProfile& profile, u64 n_records);
  /// Before job `job` reads its trace: holds it unless a job of its key
  /// already does.
  void begin(std::size_t job);
  /// After job `job` (or in place of a skipped one): the last job of its
  /// key releases the hold.
  void end(std::size_t job);

 private:
  struct Key {
    WorkloadProfile profile;
    u64 n_records = 0;
    std::size_t jobs_left = 0;  // guarded by mu_, as is `trace`
    TraceHandle trace;
  };
  static constexpr std::size_t kStreamed = ~std::size_t{0};

  const u64 threshold_ = stream_threshold();
  std::vector<std::size_t> key_of_;  // per job: index into keys_, or kStreamed
  std::mutex mu_;
  std::vector<Key> keys_;
};

}  // namespace hcsim
