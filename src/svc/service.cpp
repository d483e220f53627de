#include "svc/service.hpp"

#include <sys/stat.h>

#include <algorithm>
#include <cstdlib>
#include <thread>

#include "core/machine_config.hpp"
#include "sample/spec.hpp"
#include "util/faultpoint.hpp"
#include "wload/program_gen.hpp"

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
    if (const std::string bad = workload_profile_error(req.profile); !bad.empty()) {
      error = "job with an unrunnable workload profile: " + bad;
      return false;
    }
    if (const std::string bad = sample_spec_of(req, specs[i]); !bad.empty()) {
      error = "job with a bad sample spec: " + bad;
      return false;
    }
  }

  // Journal hits go out first. The fresh jobs are grouped into cells, one
  // per (profile, length, spec), so the batch generates each trace once
  // whatever order its jobs arrive in.
  bool stream_ok = true;
  const auto send = [&](const JobResponse& resp) {
    if (!stream_ok) return;
    if (on_result(resp)) {
      ++outcome.completed;
      if (resp.from_journal) ++outcome.journal_hits;
    } else {
      stream_ok = false;
    }
  };
  std::vector<exp::SweepCell> cells;
  std::vector<std::vector<std::size_t>> req_of;  // per cell and config: index in reqs
  std::vector<JobResponse> resps(reqs.size());
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const JobRequest& req = reqs[i];
    JobResponse& resp = resps[i];
    resp.job_id = job_id(req);
    if (journal_.lookup(resp.job_id, resp.result)) {
      resp.from_journal = true;
      send(resp);
      continue;
    }
    // Newest first: a batch usually lists a cell's jobs together.
    std::size_t c = cells.size();
    while (c > 0 && !(cells[c - 1].n_records == req.n_records && cells[c - 1].spec == specs[i] &&
                      cells[c - 1].profile == req.profile))
      --c;
    if (c == 0) {
      cells.push_back({req.profile, req.n_records, specs[i], {}});
      req_of.emplace_back();
      c = cells.size();
    }
    cells[c - 1].configs.push_back(req.config);
    req_of[c - 1].push_back(i);
    ++outcome.skipped;  // until its result is handed over
  }

  // Results are journaled on the worker and go out on this thread, so a
  // pool worker never waits on a slow reader. With a journal, a dead stream
  // stops sending but NOT simulating: the remainder keeps landing in the
  // journal, so the client's re-submission after reconnect is served as
  // pure journal hits. Without one, jobs not yet started are skipped.
  exp::simulate_cells(
      cells, pool_.size(), &pool_,
      [&](std::size_t c, std::size_t k, SimResult&& result) {
        // The crash the journal exists to survive: abort() at a
        // deterministic count, with every result handed over already durable.
        if (fault::enabled() && fault::fire("job.abort")) std::abort();
        JobResponse& resp = resps[req_of[c][k]];
        resp.result = std::move(result);
        journal_.append(resp.job_id, resp.result);
      },
      [&](std::size_t c, std::size_t k) {
        --outcome.skipped;
        const JobResponse resp = std::move(resps[req_of[c][k]]);
        send(resp);
        return stream_ok || journal_.valid();
      });

  outcome.stream_lost = !stream_ok;
  if (!stream_ok)
    error = "client connection lost mid-batch; " + std::to_string(outcome.skipped) +
            " job(s) skipped";
  return stream_ok;
}

}  // namespace hcsim::svc
