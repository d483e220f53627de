#include "svc/service.hpp"

#include <sys/stat.h>

#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <thread>

#include "core/machine_config.hpp"
#include "exp/report.hpp"
#include "exp/sweep.hpp"
#include "rv/kernels.hpp"
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

bool SweepService::run(const SweepRequest& req,
                       const std::function<bool()>& cancelled, SweepResponse& resp,
                       std::string& error) {
  if (req.version != kProtocolVersion) {
    error = "unsupported protocol version " + std::to_string(req.version);
    return false;
  }
  auto spec = exp::find_sweep(req.sweep);
  if (!spec) {
    error = "unknown sweep '" + req.sweep + "'";
    return false;
  }
  if (req.trace_len != 0) spec->trace_lens = {req.trace_len};
  if (!req.seeds.empty()) {
    for (u64 s : req.seeds)
      if (s == 0) {
        error = "seed 0 is not a valid explicit seed";
        return false;
      }
    spec->seeds = req.seeds;
  }

  // Assemble the sample spec with the same non-fatal checks SampleSpec::
  // validate() enforces fatally — a malformed request must not abort hcsimd.
  sample::SampleSpec sample_spec;
  if (req.sampled) {
    sample_spec.warmup = req.warmup != 0 ? req.warmup : sample::kDefaultWarmup;
    sample_spec.measure = req.measure != 0 ? req.measure : sample::kDefaultMeasure;
    sample_spec.period = req.period;
    sample_spec.max_windows = req.max_windows;
    if (sample_spec.period != 0 &&
        sample_spec.period < sample_spec.warmup + sample_spec.measure) {
      error = "sample period smaller than warmup + measure";
      return false;
    }
  }

  const auto t0 = std::chrono::steady_clock::now();
  exp::SweepResult result;
  {
    std::lock_guard<std::mutex> job(job_mu_);
    sample::set_active_sample_spec(sample_spec);
    exp::RunOptions opts;
    opts.pool = &pool_;
    opts.cancelled = cancelled;
    result = exp::run_sweep(*spec, opts);
    sample::set_active_sample_spec(sample::SampleSpec{});
  }
  if (result.cancelled) {
    error = "cancelled";
    return false;
  }

  resp.summary = exp::render_summary(result);
  if (req.want_csv) resp.csv = exp::to_csv(result);
  if (req.want_json) resp.json = exp::to_json(result);
  resp.n_points = result.points.size();
  resp.threads_used = result.threads_used;
  resp.wall_ms = static_cast<u64>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
  return true;
}

bool SweepService::run_jobs(const std::vector<JobRequest>& reqs,
                            const std::function<bool()>& cancelled,
                            const std::function<bool(const JobResponse&)>& on_result,
                            BatchOutcome& outcome, std::string& error) {
  outcome = BatchOutcome{};
  if (reqs.empty()) return true;

  const JobRequest& first = reqs.front();
  for (const JobRequest& req : reqs) {
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
    // The active sample spec is process-global, so one batch = one spec.
    if (req.sampled != first.sampled || req.warmup != first.warmup ||
        req.measure != first.measure || req.period != first.period ||
        req.max_windows != first.max_windows) {
      error = "mixed sample specs in one job batch";
      return false;
    }
  }

  sample::SampleSpec sample_spec;
  if (first.sampled) {
    sample_spec.warmup = first.warmup != 0 ? first.warmup : sample::kDefaultWarmup;
    sample_spec.measure = first.measure != 0 ? first.measure : sample::kDefaultMeasure;
    sample_spec.period = first.period;
    sample_spec.max_windows = first.max_windows;
    if (sample_spec.period != 0 &&
        sample_spec.period < sample_spec.warmup + sample_spec.measure) {
      error = "sample period smaller than warmup + measure";
      return false;
    }
  }

  std::lock_guard<std::mutex> job(job_mu_);
  sample::set_active_sample_spec(sample_spec);

  // Per-batch latch (the pool is shared); `mu` also serializes on_result and
  // the outcome counters.
  std::mutex mu;
  std::condition_variable cv;
  std::size_t left = reqs.size();
  bool stream_ok = true;
  bool batch_cancelled = false;

  for (const JobRequest& req : reqs) {
    pool_.submit([&, &req = req] {
      if (cancelled && cancelled()) {
        std::lock_guard<std::mutex> lock(mu);
        batch_cancelled = true;
        if (--left == 0) cv.notify_all();
        return;
      }
      JobResponse resp;
      resp.job_id = job_id(req);
      const bool journaled = journal_.lookup(resp.job_id, resp.result);
      resp.from_journal = journaled;
      if (!journaled) {
        // The crash the journal exists to survive: abort() between jobs, at
        // a deterministic index, with everything before it already durable.
        if (fault::enabled() && fault::fire("job.abort")) std::abort();
        resp.result = simulate_workload(req.config, req.profile, req.n_records);
        journal_.append(resp.job_id, resp.result);
      }
      std::lock_guard<std::mutex> lock(mu);
      // A dead stream stops sending but NOT simulating: the remainder keeps
      // landing in the journal, so the client's re-submission after
      // reconnect is served as pure journal hits.
      if (stream_ok) {
        if (on_result(resp)) {
          ++outcome.completed;
          if (resp.from_journal) ++outcome.journal_hits;
        } else {
          stream_ok = false;
        }
      }
      if (--left == 0) cv.notify_all();
    });
  }

  bool ok;
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&left] { return left == 0; });
    ok = stream_ok && !batch_cancelled;
    outcome.stream_lost = !stream_ok;
    if (batch_cancelled) error = "cancelled";
    else if (!stream_ok) error = "client connection lost mid-batch";
  }
  sample::set_active_sample_spec(sample::SampleSpec{});
  return ok;
}

bool resolve_workload(const std::string& name, WorkloadProfile& out,
                      std::string& error) {
  if (name.rfind("rv:", 0) == 0) {
    const std::string kernel = name.substr(3);
    if (!rv::find_kernel(kernel)) {
      error = "unknown rv kernel '" + kernel + "'";
      return false;
    }
    out = rv::rv_workload_profile(kernel);
    return true;
  }
  for (const WorkloadProfile& p : spec_int_2000_profiles()) {
    if (p.name == name) {
      out = p;
      return true;
    }
  }
  error = "unknown workload '" + name + "' (use \"rv:<kernel>\" or a SPEC name)";
  return false;
}

}  // namespace hcsim::svc
