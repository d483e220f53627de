// hcsim — the shared trace cache.
//
// A generated trace is a deterministic function of its workload profile and
// length, so jobs that read the same (profile, length) key can share one
// copy. The cache gives each key one reference-counted trace: generated once
// while any handle to it exists, and freed when the last handle drops. Its
// memory therefore follows the jobs that read it — a sweep or a daemon batch
// holds a sampled cached cell's key from its first job to its last
// (exp::simulate_cells; an unsampled cell keeps pcs and outcomes instead of
// a trace) — instead of growing with every key a process has ever seen.
// cached_trace() is the one exception: a pinned handle for callers that
// want a reference for the whole process (figure benches, examples, tests).
#pragma once

#include <memory>

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

}  // namespace hcsim
