// hcsim — the sweep engine behind hcsimd.
//
// One SweepService lives for the daemon's lifetime: it owns the process-wide
// exp::ThreadPool every job runs on, and serializes jobs (one sweep at a
// time, parallel *within* the sweep). Serialization is not a convenience —
// the active sample spec and the cached-trace store are process-global, so
// two concurrent sweeps with different sampling schedules would race. The
// payoff of the persistent process is exactly those globals staying warm:
// a repeated (workload, seed, len) cell reuses the cached trace instead of
// regenerating it.
#pragma once

#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "exp/runner.hpp"
#include "svc/journal.hpp"
#include "svc/protocol.hpp"

namespace hcsim::svc {

class SweepService {
 public:
  /// `threads` sizes the shared pool; 0 = hardware concurrency. A non-empty
  /// `journal_dir` persists every completed job to
  /// `<journal_dir>/daemon.journal` and recovers completed results on
  /// construction — journal_error() reports an unusable journal (the
  /// service still runs, just without durability).
  explicit SweepService(unsigned threads, const std::string& journal_dir = "");

  /// Validate and run one request. `cancelled` is polled between points;
  /// a cancelled run returns false with error "cancelled". Returns false
  /// with a diagnostic for unknown sweeps, bad versions, or inconsistent
  /// sampling parameters — never aborts on request content.
  bool run(const SweepRequest& req, const std::function<bool()>& cancelled,
           SweepResponse& resp, std::string& error);

  /// How one kRunJobs batch went.
  struct BatchOutcome {
    u64 completed = 0;
    u64 journal_hits = 0;  // jobs served from the journal, not recomputed
    /// The result stream died mid-batch (on_result returned false) — a
    /// transport failure the caller must not answer as a semantic error.
    bool stream_lost = false;
  };

  /// Run a batch of self-contained jobs on the pool. Journaled jobs are
  /// served from the journal (from_journal set); fresh results are appended
  /// to it before `on_result` streams them out. `on_result` is called from
  /// pool workers but serialized (never concurrently); returning false
  /// (client gone) stops the stream — remaining jobs still simulate and
  /// journal, so the work survives for the re-submission. Returns false
  /// with a diagnostic on bad versions, mixed sample specs, a machine config
  /// the model cannot run (machine_config_error; checked for every job
  /// before any simulates), cancellation, or a dead result stream. Fault
  /// point: "job.abort" fires before each fresh simulation and abort()s the
  /// process — the crash the journal exists to survive.
  bool run_jobs(const std::vector<JobRequest>& reqs,
                const std::function<bool()>& cancelled,
                const std::function<bool(const JobResponse&)>& on_result,
                BatchOutcome& outcome, std::string& error);

  exp::ThreadPool& pool() { return pool_; }
  /// Non-empty when a requested journal could not be opened.
  const std::string& journal_error() const { return journal_error_; }
  /// Journal state for startup logging and tests.
  const Journal& journal() const { return journal_; }

 private:
  exp::ThreadPool pool_;
  std::mutex job_mu_;  // one sweep/batch at a time (global sample spec + cache)
  Journal journal_;
  std::string journal_error_;
};

/// Resolve a ServeTraceRequest workload: "rv:<kernel>" or a SPEC profile
/// name. Returns false with a diagnostic on unknown names.
bool resolve_workload(const std::string& name, WorkloadProfile& out,
                      std::string& error);

}  // namespace hcsim::svc
