// hcsim — the job engine behind hcsimd.
//
// One SweepService lives for the daemon's lifetime: it owns the process-wide
// exp::ThreadPool every job runs on and the daemon's job journal. A job's
// result is a function of its JobRequest alone — config, profile, length
// and its own sample spec — so batches need no lock around them: several
// batches may share the pool at once, and one batch may mix sample specs.
// The payoff of the persistent process is the cached-trace store staying
// warm: a repeated (workload, seed, len) cell reuses the cached trace
// instead of regenerating it.
#pragma once

#include <functional>
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

  /// How one kRunJobs batch went.
  struct BatchOutcome {
    u64 completed = 0;
    u64 journal_hits = 0;  // jobs served from the journal, not recomputed
    /// The result stream died mid-batch (on_result returned false) — a
    /// transport failure the caller must not answer as a semantic error.
    bool stream_lost = false;
  };

  /// Run a batch of self-contained jobs on the pool, each under its own
  /// sample spec (sample_spec_of). Journaled jobs are served from the
  /// journal (from_journal set); fresh results are appended to it before
  /// `on_result` streams them out. `on_result` runs on the calling thread,
  /// in completion order, so a slow or stalled reader never holds a pool
  /// worker; returning false (client gone) stops the stream — remaining
  /// jobs still simulate and journal, so the work survives for the
  /// re-submission. Safe to call from several threads at once: batches
  /// take turns on the pool job by job (exp::run_batch), so a batch that
  /// arrives while another runs starts within about one job. Returns false
  /// with a diagnostic on bad
  /// versions, a zero n_records, a sample spec sample::spec_error refuses,
  /// a machine config the model cannot run (machine_config_error) — all
  /// checked for every job before any simulates — or a dead result stream.
  /// Fault point: "job.abort" fires before each fresh simulation and
  /// abort()s the process — the crash the journal exists to survive.
  bool run_jobs(const std::vector<JobRequest>& reqs,
                const std::function<bool(const JobResponse&)>& on_result,
                BatchOutcome& outcome, std::string& error);

  exp::ThreadPool& pool() { return pool_; }
  /// Non-empty when a requested journal could not be opened.
  const std::string& journal_error() const { return journal_error_; }
  /// Journal state for startup logging and tests.
  const Journal& journal() const { return journal_; }

 private:
  exp::ThreadPool pool_;
  Journal journal_;
  std::string journal_error_;
};

}  // namespace hcsim::svc
