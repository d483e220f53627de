#include "svc/service.hpp"

#include <sys/stat.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <thread>

#include "core/machine_config.hpp"
#include "sample/spec.hpp"
#include "sim/simulator.hpp"
#include "util/faultpoint.hpp"

namespace hcsim::svc {

SweepService::SweepService(unsigned threads, const std::string& journal_dir)
    : pool_(threads == 0 ? std::max(1u, std::thread::hardware_concurrency())
                         : threads) {
  if (journal_dir.empty()) return;
  ::mkdir(journal_dir.c_str(), 0755);  // single level; EEXIST is fine
  if (!journal_.open(journal_dir + "/daemon.journal"))
    journal_error_ = journal_.error();
}

bool SweepService::run_jobs(const std::vector<JobRequest>& reqs,
                            const std::function<bool(const JobResponse&)>& on_result,
                            BatchOutcome& outcome, std::string& error) {
  outcome = BatchOutcome{};
  std::vector<sample::SampleSpec> specs(reqs.size());
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const JobRequest& req = reqs[i];
    if (req.version != kProtocolVersion) {
      error = "unsupported protocol version " + std::to_string(req.version);
      return false;
    }
    if (req.n_records == 0) {
      error = "job with n_records 0";
      return false;
    }
    if (const std::string bad = machine_config_error(req.config); !bad.empty()) {
      error = "job with an unrunnable machine config: " + bad;
      return false;
    }
    if (const std::string bad = sample_spec_of(req, specs[i]); !bad.empty()) {
      error = "job with a bad sample spec: " + bad;
      return false;
    }
  }

  // Each distinct trace is held from the first job that reads it to the
  // last, so the batch generates it once and frees it as soon as it is done.
  TraceHolds holds;
  for (const JobRequest& req : reqs) holds.add(req.profile, req.n_records);
  // Set once the stream is lost with no journal to keep results for the
  // re-submission: jobs that have not started yet have nowhere to go.
  std::atomic<bool> skip_rest{false};
  std::atomic<u64> skipped{0};
  std::vector<JobResponse> resps(reqs.size());
  std::vector<std::function<void()>> jobs;
  jobs.reserve(reqs.size());
  for (std::size_t i = 0; i < reqs.size(); ++i)
    jobs.push_back([&, i] {
      const JobRequest& req = reqs[i];
      JobResponse& resp = resps[i];
      if (skip_rest.load()) {
        ++skipped;
        holds.end(i);
        return;
      }
      resp.job_id = job_id(req);
      resp.from_journal = journal_.lookup(resp.job_id, resp.result);
      if (!resp.from_journal) {
        holds.begin(i);
        // The crash the journal exists to survive: abort() between jobs, at
        // a deterministic index, with everything before it already durable.
        if (fault::enabled() && fault::fire("job.abort")) std::abort();
        resp.result = simulate_workload(req.config, req.profile, req.n_records, specs[i]);
        journal_.append(resp.job_id, resp.result);
      }
      holds.end(i);
    });
  // Results go out on this thread, so a pool worker never waits on a slow
  // reader, and each is journaled before it is sent.
  bool stream_ok = true;
  exp::run_batch(jobs, pool_.size(), &pool_, [&](std::size_t i) {
    // With a journal, a dead stream stops sending but NOT simulating: the
    // remainder keeps landing in the journal, so the client's
    // re-submission after reconnect is served as pure journal hits.
    const JobResponse resp = std::move(resps[i]);
    if (!stream_ok) return;
    if (on_result(resp)) {
      ++outcome.completed;
      if (resp.from_journal) ++outcome.journal_hits;
    } else {
      stream_ok = false;
      if (!journal_.valid()) skip_rest.store(true);
    }
  });

  outcome.skipped = skipped.load();
  outcome.stream_lost = !stream_ok;
  if (!stream_ok)
    error = "client connection lost mid-batch; " + std::to_string(outcome.skipped) +
            " job(s) skipped";
  return stream_ok;
}

}  // namespace hcsim::svc
