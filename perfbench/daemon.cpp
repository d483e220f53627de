// daemon_mixed: two concurrent svc::Client connections drive a spawned
// hcsimd through a cold pass, a restart on the same journal, and a warm
// pass the journal must serve in full.
#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <thread>

#include "exp/report.hpp"
#include "perf.hpp"
#include "power/power_model.hpp"
#include "rv/kernels.hpp"
#include "svc/client.hpp"
#include "svc/journal.hpp"

using namespace hcsim;

namespace perf {

GridJobs expand_jobs(const exp::SweepSpec& spec) {
  GridJobs g;
  g.spec = spec;
  g.points = exp::expand(spec);
  std::map<u64, std::size_t> index;
  const auto add = [&](const MachineConfig& cfg, const WorkloadProfile& profile,
                       u64 n_records) {
    svc::JobRequest req;
    req.config = cfg;
    req.profile = profile;
    req.n_records = n_records;
    const u64 id = svc::job_id(req);
    if (index.emplace(id, g.jobs.size()).second) {
      g.jobs.push_back(std::move(req));
      g.ids.push_back(id);
    }
    return id;
  };
  std::map<std::pair<u32, u32>, u64> cell_job;
  for (const exp::ExperimentPoint& p : g.points) {
    auto it = cell_job.find(cell_of(p));
    if (it == cell_job.end())
      it = cell_job.emplace(cell_of(p), add(spec.baseline, p.profile, p.n_records)).first;
    g.point_baseline.push_back(it->second);
    g.point_job.push_back(add(p.variant.machine, p.profile, p.n_records));
  }
  return g;
}

exp::SweepResult assemble(const GridJobs& g, const std::map<u64, SimResult>& results) {
  const auto get = [&](u64 id) {
    const auto it = results.find(id);
    return it == results.end() ? SimResult{} : it->second;
  };
  exp::SweepResult out;
  out.sweep = g.spec.name;
  out.points.resize(g.points.size());
  for (std::size_t i = 0; i < g.points.size(); ++i) {
    exp::PointResult& pr = out.points[i];
    pr.point = g.points[i];
    pr.baseline = get(g.point_baseline[i]);
    pr.sim = get(g.point_job[i]);
    pr.power_baseline = analyze_power(pr.baseline, g.spec.baseline);
    pr.power_sim = analyze_power(pr.sim, pr.point.variant.machine);
  }
  return out;
}

namespace {

/// Per-frame client deadline: a wedged daemon fails the pass, never hangs it.
constexpr int kFrameTimeoutMs = 120000;

/// A spawned hcsimd. The child gets PR_SET_PDEATHSIG so it cannot outlive
/// the benchmark, and the destructor kills and reaps it on every exit path.
class Hcsimd {
 public:
  Hcsimd() = default;
  ~Hcsimd() { stop(); }
  Hcsimd(const Hcsimd&) = delete;
  Hcsimd& operator=(const Hcsimd&) = delete;

  /// Spawn and wait until the daemon answers a ping (10 s limit).
  bool start(const Options& o, const std::string& socket) {
    socket_ = socket;
    const std::string threads = std::to_string(o.threads);
    const std::string log_path = o.run_dir + "/hcsimd.log";
    std::vector<std::string> args = {o.hcsimd,       "--socket",
                                     socket,         "--threads",
                                     threads,        "--journal-dir",
                                     o.run_dir,      "--idle-timeout-ms",
                                     "150000"};
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    const pid_t parent = ::getpid();
    pid_ = ::fork();
    if (pid_ < 0) return false;
    if (pid_ == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (::getppid() != parent) ::_exit(127);
      const int fd = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
      if (fd >= 0) {
        ::dup2(fd, 1);
        ::dup2(fd, 2);
      }
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
    const Clock::time_point t0 = Clock::now();
    while (seconds_since(t0) < 10.0) {
      if (!alive()) return false;
      svc::Client c = svc::Client::connect(socket_);
      std::string err;
      if (c.ok()) {
        c.set_timeout_ms(2000);
        if (c.ping(err)) return true;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return false;
  }

  bool alive() {
    if (pid_ <= 0) return false;
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      return false;
    }
    return true;
  }

  /// SIGKILL without reaping (the self-check's daemon-death fault; safe to
  /// call from a client thread).
  void kill_now() const {
    if (pid_ > 0) ::kill(pid_, SIGKILL);
  }

  double peak_rss() const { return pid_ > 0 ? peak_rss_mb(pid_) : 0.0; }

  /// Ask for a clean shutdown, then kill whatever is left; always reaps.
  void stop() {
    if (!alive()) return;
    {
      svc::Client c = svc::Client::connect(socket_);
      std::string err;
      if (c.ok()) {
        c.set_timeout_ms(2000);
        c.shutdown(err);
      }
    }
    const Clock::time_point t0 = Clock::now();
    while (alive() && seconds_since(t0) < 5.0)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      int status = 0;
      ::waitpid(pid_, &status, 0);
      pid_ = -1;
    }
  }

 private:
  pid_t pid_ = -1;
  std::string socket_;
};

/// kRunJobs batches under the daemon's request-frame cap.
std::vector<std::vector<svc::JobRequest>> chunk(const std::vector<svc::JobRequest>& jobs) {
  constexpr std::size_t kBudget = svc::kMaxRequestFrame - 64;
  std::vector<std::vector<svc::JobRequest>> batches;
  std::size_t used = 0;
  for (const svc::JobRequest& req : jobs) {
    std::vector<u8> buf;
    svc::encode(buf, req);
    if (batches.empty() || used + buf.size() > kBudget) {
      batches.emplace_back();
      used = 4;
    }
    batches.back().push_back(req);
    used += buf.size();
  }
  return batches;
}

struct Pass {
  std::map<u64, svc::JobResponse> results;
  std::vector<double> job_ms;
  std::vector<double> connect_ms;
  double second_wait_ms = 0.0;
  double wall_s = 0.0;
  u64 transport_failures = 0;
};

/// One pass: every grid on its own connection, sent concurrently. The
/// connections open in grid order, so the daemon (one connection at a time)
/// serves grid 0 while grid 1's batch waits behind it.
Pass run_pass(const std::string& socket, const std::vector<GridJobs>& grids, SpanLog* log,
              const Hcsimd& daemon, u64 kill_after) {
  Pass pass;
  std::vector<svc::Client> clients;
  for (std::size_t gi = 0; gi < grids.size(); ++gi) {
    ScopedSpan s(log, "svc.connect", -1, gi);
    const Clock::time_point t0 = Clock::now();
    clients.push_back(svc::Client::connect(socket));
    clients.back().set_timeout_ms(kFrameTimeoutMs);
    pass.connect_ms.push_back(seconds_since(t0) * 1e3);
  }
  std::mutex mu;
  u64 received = 0;
  const Clock::time_point t0 = Clock::now();
  std::vector<std::thread> threads;
  for (std::size_t gi = 0; gi < grids.size(); ++gi) {
    threads.emplace_back([&, gi] {
      svc::Client& c = clients[gi];
      if (!c.ok()) return;
      bool first = true;
      const Clock::time_point sent = Clock::now();
      for (const std::vector<svc::JobRequest>& batch : chunk(grids[gi].jobs)) {
        ScopedSpan b(log, "svc.run_jobs", -1, gi);
        svc::JobsDone done;
        std::string err;
        const svc::Client::BatchStatus st = c.run_jobs(
            batch,
            [&](const svc::JobResponse& r) {
              ScopedSpan s(log, "svc.on_result", b.id(), r.job_id);
              const double ms = seconds_since(sent) * 1e3;
              std::lock_guard<std::mutex> lock(mu);
              pass.results[r.job_id] = r;
              pass.job_ms.push_back(ms);
              if (first && gi == 1) pass.second_wait_ms = ms;
              first = false;
              if (kill_after != 0 && ++received == kill_after) daemon.kill_now();
            },
            done, err);
        if (st != svc::Client::BatchStatus::kDone) {
          std::fprintf(stderr, "hcsim_perf: batch on connection %zu failed: %s\n", gi,
                       err.c_str());
          std::lock_guard<std::mutex> lock(mu);
          ++pass.transport_failures;
          break;
        }
      }
      c = svc::Client();  // close, so the daemon accepts the next connection
    });
  }
  for (std::thread& t : threads) t.join();
  pass.wall_s = seconds_since(t0);
  return pass;
}

bool same_result(const SimResult& a, const SimResult& b) {
  std::vector<u8> ea, eb;
  svc::encode(ea, a);
  svc::encode(eb, b);
  return ea == eb;
}

/// Median wall time per call of `body`, which makes `n` calls, in seconds.
template <typename F>
double per_call_s(std::size_t n, F&& body) {
  return n ? median_seconds(body) / static_cast<double>(n) : 0.0;
}

/// The service-layer rows measured in-process on this workload's jobs, plus
/// the RV frontend's pump cost.
void service_layers(const Options& o, const std::vector<GridJobs>& grids,
                    const std::map<u64, SimResult>& cold, Layers& layers) {
  std::vector<const svc::JobRequest*> jobs;
  for (const GridJobs& g : grids)
    for (const svc::JobRequest& j : g.jobs) jobs.push_back(&j);

  u64 sink = 0;
  layers.emplace_back("svc.codec_us_per_job", 1e6 * per_call_s(jobs.size(), [&] {
    for (const svc::JobRequest* j : jobs) {
      std::vector<u8> buf;
      svc::encode(buf, *j);
      wire::Reader r(buf.data(), buf.size());
      svc::JobRequest back;
      sink += svc::decode(r, back);
      svc::JobResponse resp;
      resp.job_id = sink;
      const auto it = cold.find(svc::job_id(*j));
      if (it != cold.end()) resp.result = it->second;
      std::vector<u8> rbuf;
      svc::encode(rbuf, resp);
      wire::Reader rr(rbuf.data(), rbuf.size());
      svc::JobResponse rback;
      sink += svc::decode(rr, rback);
    }
  }));
  layers.emplace_back("svc.job_id_ns", 1e9 * per_call_s(jobs.size(), [&] {
    for (const svc::JobRequest* j : jobs) sink += svc::job_id(*j);
  }));

  // Append every cold result to a fresh journal, then recover the daemon's.
  {
    const std::string path = o.run_dir + "/append.journal";
    svc::Journal fresh;
    if (fresh.open(path)) {
      const Clock::time_point t0 = Clock::now();
      for (const auto& [id, r] : cold) fresh.append(id, r);
      layers.emplace_back("svc.journal_append_us",
                          cold.empty() ? 0.0
                                       : seconds_since(t0) * 1e6 /
                                             static_cast<double>(cold.size()));
    }
    ::unlink(path.c_str());
  }
  svc::Journal daemon_journal;
  const Clock::time_point t_open = Clock::now();
  if (daemon_journal.open(o.run_dir + "/daemon.journal")) {
    layers.emplace_back("svc.journal_open_ms", seconds_since(t_open) * 1e3);
    SimResult r;
    layers.emplace_back("svc.journal_lookup_us", 1e6 * per_call_s(cold.size(), [&] {
      for (const auto& [id, unused] : cold) sink += daemon_journal.lookup(id, r);
    }));
  }

  u64 pumped = 0;
  double pump_s = 0.0;
  for (const GridJobs& g : grids)
    for (const svc::JobRequest& j : g.jobs) {
      if (j.profile.rv_kernel.empty() || j.config.steer.helper_enabled) continue;
      const rv::KernelStream ks = rv::open_kernel_stream(j.profile.rv_kernel);
      const Clock::time_point t0 = Clock::now();
      ks.pump(o.len, [&](const TraceRecord&) { ++pumped; });
      pump_s += seconds_since(t0);
    }
  layers.emplace_back("rv.pump_ns_per_uop",
                      pumped ? pump_s * 1e9 / static_cast<double>(pumped) : 0.0);
  g_sink = sink;
}

}  // namespace

DaemonOutcome run_daemon_workload(const Options& o, SpanLog* log) {
  DaemonOutcome out;
  std::vector<GridJobs> grids;
  for (const exp::SweepSpec& s : workload_grids(o)) grids.push_back(expand_jobs(s));
  u64 n_jobs = 0;
  for (const GridJobs& g : grids) n_jobs += g.jobs.size();
  const std::string socket = o.run_dir + "/hcsimd.sock";

  // Cold pass.
  Hcsimd cold_daemon;
  Clock::time_point ts = Clock::now();
  const bool cold_up = cold_daemon.start(o, socket);
  out.setup_s.push_back(seconds_since(ts));
  if (!cold_up) std::fprintf(stderr, "hcsim_perf: hcsimd did not start (cold pass)\n");
  const Clock::time_point t0 = Clock::now();
  Pass cold = cold_up ? run_pass(socket, grids, log, cold_daemon, o.kill_daemon_after)
                      : Pass{};
  out.peak_rss_mb = cold_daemon.peak_rss();
  cold_daemon.stop();

  // Restart on the same journal; the warm pass must come from it.
  Hcsimd warm_daemon;
  ts = Clock::now();
  const bool warm_up = warm_daemon.start(o, socket);
  out.setup_s.push_back(seconds_since(ts));
  if (!warm_up) std::fprintf(stderr, "hcsim_perf: hcsimd did not start (warm pass)\n");
  Pass warm = warm_up ? run_pass(socket, grids, log, warm_daemon, 0) : Pass{};
  out.peak_rss_mb = std::max(out.peak_rss_mb, warm_daemon.peak_rss());
  double ping_block_s = 0.0;
  std::vector<double> ping_us;
  if (log && warm_up) {
    const Clock::time_point tp = Clock::now();
    svc::Client c = svc::Client::connect(socket);
    c.set_timeout_ms(kFrameTimeoutMs);
    std::string err;
    for (int i = 0; i < 200 && c.ok(); ++i) {
      const Clock::time_point t = Clock::now();
      if (!c.ping(err)) break;
      ping_us.push_back(seconds_since(t) * 1e6);
    }
    ping_block_s = seconds_since(tp);
  }
  warm_daemon.stop();

  std::map<u64, SimResult> cold_results;
  for (const auto& [id, r] : cold.results) cold_results[id] = r.result;
  double report_s = 0.0;
  {
    ScopedSpan r(log, "exp.report", -1, 0);
    const Clock::time_point tr = Clock::now();
    for (const GridJobs& g : grids) {
      const exp::SweepResult res = assemble(g, cold_results);
      if (exp::render_summary(res).empty()) std::abort();
      out.rows.push_back(csv_rows(exp::to_csv(res), o));
    }
    report_s = seconds_since(tr);
  }
  out.sweep_s = seconds_since(t0) - ping_block_s;

  // Failures: cold jobs that never came back, and warm jobs that were lost,
  // recomputed instead of served from the journal, or differ from the cold
  // result.
  u64 warm_hits = 0;
  for (const GridJobs& g : grids)
    for (const u64 id : g.ids) {
      const auto c = cold.results.find(id);
      if (c == cold.results.end()) {
        ++out.failed;
      } else {
        out.covered_uops += c->second.result.uops;
      }
      const auto w = warm.results.find(id);
      if (w != warm.results.end() && w->second.from_journal) ++warm_hits;
      if (w == warm.results.end() || !w->second.from_journal || c == cold.results.end() ||
          !same_result(w->second.result, c->second.result))
        ++out.failed;
    }
  out.attempted = 2 * n_jobs;
  out.job_ms = cold.job_ms;

  if (log) {
    std::vector<double> connect_ms = cold.connect_ms;
    connect_ms.insert(connect_ms.end(), warm.connect_ms.begin(), warm.connect_ms.end());
    u64 points = 0;
    for (const GridJobs& g : grids) points += g.points.size();
    Layers& l = out.layers;
    l.emplace_back("svc.connect_ms", median(connect_ms));
    l.emplace_back("svc.ping_rtt_us", median(ping_us));
    l.emplace_back("svc.warm_pass_ms", warm.wall_s * 1e3);
    l.emplace_back("svc.journal_hit_ratio",
                   static_cast<double>(warm_hits) / static_cast<double>(n_jobs));
    l.emplace_back("svc.second_client_wait_ms", cold.second_wait_ms);
    l.emplace_back("svc.reconnects",
                   static_cast<double>(cold.transport_failures + warm.transport_failures));
    l.emplace_back("exp.sims_per_point",
                   static_cast<double>(n_jobs) / static_cast<double>(points));
    l.emplace_back("exp.report_ms", report_s * 1e3);
    std::vector<const SimResult*> cells, variants;
    for (const GridJobs& g : grids)
      for (std::size_t i = 0; i < g.points.size(); ++i) {
        const auto b = cold_results.find(g.point_baseline[i]);
        const auto v = cold_results.find(g.point_job[i]);
        if (b != cold_results.end() &&
            std::find(cells.begin(), cells.end(), &b->second) == cells.end())
          cells.push_back(&b->second);
        if (v != cold_results.end()) variants.push_back(&v->second);
      }
    simulated_rates(cells, variants, l);
    u64 n_power = 0;
    const Clock::time_point tp = Clock::now();
    for (const GridJobs& g : grids)
      for (std::size_t i = 0; i < g.points.size(); ++i) {
        const auto v = cold_results.find(g.point_job[i]);
        if (v == cold_results.end()) continue;
        if (analyze_power(v->second, g.points[i].variant.machine).edp < 0) std::abort();
        ++n_power;
      }
    l.emplace_back("power.analyze_us_per_point",
                   n_power ? seconds_since(tp) * 1e6 / static_cast<double>(n_power) : 0.0);
    service_layers(o, grids, cold_results, l);
  }
  return out;
}

}  // namespace perf
