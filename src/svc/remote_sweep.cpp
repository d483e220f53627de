#include "svc/remote_sweep.hpp"

#include <sys/stat.h>

#include <algorithm>
#include <chrono>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "sample/spec.hpp"
#include "svc/client.hpp"
#include "svc/journal.hpp"
#include "util/rng.hpp"

namespace hcsim::svc {

namespace {

/// Capped exponential backoff with deterministic jitter (splitmix64 of the
/// global attempt counter, so retry schedules are reproducible in tests but
/// two clients hammering one socket still spread out).
u64 backoff_delay_ms(const FtSweepOptions& opts, unsigned attempt, u64 salt) {
  const unsigned shift = attempt > 0 ? attempt - 1 : 0;
  u64 delay = opts.backoff_cap_ms;
  if (shift < 63) {
    const u64 grown = opts.backoff_base_ms << shift;
    // Detect overflow of the shift as well as exceeding the cap.
    if ((grown >> shift) == opts.backoff_base_ms)
      delay = std::min<u64>(opts.backoff_cap_ms, grown);
  }
  u64 state = 0x9E3779B97F4A7C15ULL ^ (salt * 0x100000001B3ULL + attempt);
  const u64 jitter = delay > 0 ? splitmix64(state) % (delay / 2 + 1) : 0;
  return delay + jitter;
}

size_t encoded_size(const JobRequest& req) {
  std::vector<u8> buf;
  encode(buf, req);
  return buf.size();
}

/// Greedy chunking so each kRunJobs payload (u32 count + requests) stays
/// under the daemon's request-frame cap with headroom to spare.
std::vector<std::vector<JobRequest>> chunk_jobs(const std::vector<JobRequest>& jobs) {
  constexpr size_t kBudget = kMaxRequestFrame - 64;
  constexpr size_t kMaxPerBatch = 4096;  // daemon-side count cap
  std::vector<std::vector<JobRequest>> batches;
  size_t used = 4;  // the count prefix
  for (const JobRequest& req : jobs) {
    const size_t sz = encoded_size(req);
    if (batches.empty() || used + sz > kBudget ||
        batches.back().size() >= kMaxPerBatch) {
      batches.emplace_back();
      used = 4;
    }
    batches.back().push_back(req);
    used += sz;
  }
  return batches;
}

}  // namespace

FtStatus run_sweep_ft(const exp::SweepSpec& spec, const FtSweepOptions& opts,
                      exp::SweepResult& out, FtSweepStats& stats,
                      std::string& error) {
  const auto t0 = std::chrono::steady_clock::now();
  out = exp::SweepResult{};
  stats = FtSweepStats{};
  error.clear();
  const auto logf = [&opts](const std::string& msg) {
    if (opts.log) opts.log(msg);
  };

  // Every job carries the sweep's sample spec. Resolve it the way the
  // daemon resolves each job, so the local fallback and the remote path run
  // identical windows, and refuse a spec the daemon would refuse.
  JobRequest proto;
  proto.sampled = opts.sampled;
  proto.warmup = opts.warmup;
  proto.measure = opts.measure;
  proto.period = opts.period;
  proto.max_windows = opts.max_windows;
  sample::SampleSpec sample_spec;
  error = sample_spec_of(proto, sample_spec);
  if (!error.empty()) return FtStatus::kBadSpec;

  const std::vector<exp::ExperimentPoint> points = exp::expand(spec);
  if (points.empty()) {
    error = "sweep '" + spec.name + "' expands to zero points";
    return FtStatus::kBadSpec;
  }

  // Every config of every cell is a content-addressed job. Jobs are
  // deduplicated by id: a variant whose machine equals the baseline
  // collapses onto the cell's baseline job.
  const exp::CellGrid grid = exp::sweep_cells(spec, points, sample_spec);
  std::vector<JobRequest> jobs;       // unique, stable submission order
  std::vector<std::vector<u64>> ids;  // per cell and config: its job id
  std::unordered_set<u64> unique;
  for (const exp::SweepCell& cell : grid.cells) {
    std::vector<u64>& cell_ids = ids.emplace_back();
    for (const MachineConfig& config : cell.configs) {
      JobRequest req = proto;
      req.config = config;
      req.profile = cell.profile;
      req.n_records = cell.n_records;
      cell_ids.push_back(job_id(req));
      if (unique.insert(cell_ids.back()).second) jobs.push_back(std::move(req));
    }
  }
  stats.jobs = jobs.size();

  // Client journal: everything completed by a previous attempt — local or
  // remote — is already durable here and costs nothing to "re-run".
  Journal journal;
  bool have_journal = false;
  if (!opts.journal_dir.empty()) {
    ::mkdir(opts.journal_dir.c_str(), 0755);  // single level; EEXIST is fine
    if (journal.open(opts.journal_dir + "/client.journal")) {
      have_journal = true;
      if (journal.dropped_bytes() > 0)
        logf("client journal: dropped " +
             std::to_string(journal.dropped_bytes()) + " torn tail bytes");
    } else {
      logf("WARNING: client journal unusable (" + journal.error() +
           "); continuing without local durability");
    }
  }

  std::mutex results_mu;
  std::unordered_map<u64, SimResult> results;
  enum class Source { kClientJournal, kRemote, kRemoteJournal, kLocal };
  const auto record = [&](u64 id, const SimResult& res, Source src) {
    std::lock_guard<std::mutex> lock(results_mu);
    if (!results.emplace(id, res).second) return;
    switch (src) {
      case Source::kClientJournal: ++stats.client_journal_hits; break;
      case Source::kRemote: ++stats.remote_jobs; break;
      case Source::kRemoteJournal:
        ++stats.remote_jobs;
        ++stats.daemon_journal_hits;
        break;
      case Source::kLocal: ++stats.local_jobs; break;
    }
    if (src != Source::kClientJournal && have_journal) journal.append(id, res);
  };
  const auto missing_jobs = [&] {
    std::vector<JobRequest> pending;
    std::lock_guard<std::mutex> lock(results_mu);
    for (const JobRequest& req : jobs)
      if (results.count(job_id(req)) == 0) pending.push_back(req);
    return pending;
  };

  if (have_journal) {
    for (const JobRequest& req : jobs) {
      SimResult res;
      const u64 id = job_id(req);
      if (journal.lookup(id, res)) record(id, res, Source::kClientJournal);
    }
  }

  // --- layer 2: the daemon, reconnecting across transport failures --------
  const unsigned attempts_per_cycle = std::max(1u, opts.retries);
  bool remote_exhausted = false;
  if (!opts.socket_path.empty()) {
    bool connected_before = false;
    unsigned dry_cycles = 0;  // consecutive reconnect cycles with no progress
    for (;;) {
      std::vector<JobRequest> pending = missing_jobs();
      if (pending.empty()) break;

      Client client;
      for (unsigned attempt = 1; attempt <= attempts_per_cycle; ++attempt) {
        ++stats.connect_attempts;
        client = Client::connect(opts.socket_path);
        if (client.ok()) break;
        logf("connect attempt " + std::to_string(attempt) + "/" +
             std::to_string(attempts_per_cycle) + " failed: " + client.error());
        if (attempt < attempts_per_cycle)
          std::this_thread::sleep_for(std::chrono::milliseconds(
              backoff_delay_ms(opts, attempt, stats.connect_attempts)));
      }
      if (!client.ok()) {
        remote_exhausted = true;
        break;
      }
      if (connected_before) ++stats.reconnects;
      connected_before = true;
      client.set_timeout_ms(opts.timeout_ms);

      const size_t before = pending.size();
      bool transport_died = false;
      for (const std::vector<JobRequest>& batch : chunk_jobs(pending)) {
        JobsDone done;
        std::string batch_err;
        const Client::BatchStatus st = client.run_jobs(
            batch,
            [&](const JobResponse& resp) {
              record(resp.job_id, resp.result,
                     resp.from_journal ? Source::kRemoteJournal : Source::kRemote);
            },
            done, batch_err);
        if (st == Client::BatchStatus::kDone) continue;
        if (st == Client::BatchStatus::kRemoteError) {
          error = "daemon rejected job batch: " + batch_err;
          return FtStatus::kBadSpec;
        }
        logf("connection lost (" + batch_err + "); will resubmit " +
             std::to_string(missing_jobs().size()) + " unfinished job(s)");
        transport_died = true;
        break;
      }
      if (!transport_died) continue;  // loop re-checks what is still missing

      const size_t after = missing_jobs().size();
      if (after >= before) {
        if (++dry_cycles >= attempts_per_cycle) {
          remote_exhausted = true;
          break;
        }
      } else {
        dry_cycles = 0;
      }
    }
  }

  // --- layer 3: in-process fallback for whatever is still missing ---------
  std::vector<JobRequest> pending = missing_jobs();
  unsigned threads = opts.threads;
  if (threads == 0) threads = std::max(1u, std::thread::hardware_concurrency());
  if (!pending.empty()) {
    if (remote_exhausted && !opts.allow_fallback) {
      error = "daemon unreachable after " + std::to_string(attempts_per_cycle) +
              " attempt(s) and fallback disabled; " +
              std::to_string(pending.size()) + " job(s) unfinished";
      return FtStatus::kTransportFailed;
    }
    if (remote_exhausted)
      logf("daemon unreachable; computing " + std::to_string(pending.size()) +
           " remaining job(s) in-process");

    // Each cell's still-missing configs, each job once.
    std::vector<exp::SweepCell> missing;
    std::vector<std::vector<u64>> missing_ids;
    std::unordered_set<u64> queued;
    for (std::size_t c = 0; c < grid.cells.size(); ++c) {
      const exp::SweepCell& cell = grid.cells[c];
      missing.push_back({cell.profile, cell.n_records, cell.spec, {}});
      missing_ids.emplace_back();
      for (std::size_t k = 0; k < cell.configs.size(); ++k)
        if (results.count(ids[c][k]) == 0 && queued.insert(ids[c][k]).second) {
          missing.back().configs.push_back(cell.configs[k]);
          missing_ids.back().push_back(ids[c][k]);
        }
    }
    exp::simulate_cells(missing, threads, nullptr,
                        [&](std::size_t c, std::size_t k, SimResult&& res) {
                          record(missing_ids[c][k], res, Source::kLocal);
                        });
  }

  // --- assemble the SweepResult in grid order -----------------------------
  out.sweep = spec.name;
  out.threads_used = threads;
  out.points.resize(points.size());
  for (std::size_t c = 0; c < grid.cells.size(); ++c) {
    const auto base_it = results.find(ids[c][0]);
    for (std::size_t k = 1; k < grid.cells[c].configs.size(); ++k) {
      const auto sim_it = results.find(ids[c][k]);
      if (base_it == results.end() || sim_it == results.end()) {
        error = "internal: job results missing after execution";
        return FtStatus::kTransportFailed;
      }
      const exp::ExperimentPoint& p = points[grid.points[c][k - 1]];
      out.points[p.index] = exp::make_point(p, base_it->second, sim_it->second, spec.baseline);
    }
  }
  out.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  return FtStatus::kOk;
}

}  // namespace hcsim::svc
