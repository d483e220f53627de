// hcsim — the job engine behind hcsimd.
//
// One SweepService lives for the daemon's lifetime: it owns the process-wide
// exp::ThreadPool every job runs on and the daemon's job journal. A job's
// result is a function of its JobRequest alone — config, profile, length
// and its own sample spec — so batches need no lock around them: several
// batches may share the pool at once, and one batch may mix sample specs.
// A batch holds each trace it reads from its first job to its last and no
// longer, so the daemon's memory follows the batches in flight: between
// batches it holds no trace, and a cell repeated in a later batch
// regenerates its trace (about 5 ms for 300k µops, against about 30 ms per
// job; with a journal, a repeated job is a journal hit anyway).
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
    /// Jobs not run because the stream died and no journal keeps results
    /// for a re-submission.
    u64 skipped = 0;
  };

  /// Run a batch of self-contained jobs on the pool, each under its own
  /// sample spec (sample_spec_of). Journaled jobs are answered first, from
  /// the journal (from_journal set); the fresh ones run on
  /// exp::simulate_cells, one cell per (profile, length, spec), and each
  /// result is appended to the journal before `on_result` streams it out.
  /// `on_result` runs on the calling thread, in completion order, so a slow
  /// or stalled reader never holds a pool worker; returning false (client
  /// gone) stops the stream. With a journal the remaining jobs still
  /// simulate and journal, so the work survives for the re-submission;
  /// without one, jobs not yet started are skipped (outcome.skipped).
  /// Safe to call from several threads at once: batches take turns on the
  /// pool job by job (exp::run_batch), and a job is one config or one
  /// shared pass of at most exp::kMaxPassConfigs, so a batch that arrives
  /// while another runs starts within about one job. Returns false
  /// with a diagnostic on bad versions, a zero n_records, a machine config
  /// the model cannot run (machine_config_error), a workload profile the
  /// generator cannot run (workload_profile_error), a sample spec
  /// sample::spec_error refuses — all checked for every job before any
  /// simulates — or a dead result stream.
  /// Fault point: "job.abort" fires after each fresh simulation, before its
  /// result is journaled, and abort()s the process — the crash the journal
  /// exists to survive.
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
