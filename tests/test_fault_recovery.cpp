// Fault-tolerant sweeps end to end: the kRunJobs protocol, the resilient
// client, and run_sweep_ft under injected faults.
//
// The headline invariant: kill the daemon or sever the socket at any job
// boundary or mid-frame, restart or fall back, and the recovered sweep's CSV
// is byte-identical to an uninterrupted in-process run — with re-run jobs
// served from a journal instead of recomputed (asserted via the journal-hit
// counters). Fault schedules come from util/faultpoint.hpp; every test
// disarms on exit because the schedule is process-global.
#include <gtest/gtest.h>

#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "exp/report.hpp"
#include "exp/runner.hpp"
#include "exp/sweep.hpp"
#include "rv/kernels.hpp"
#include "sample/spec.hpp"
#include "scoped_env.hpp"
#include "sim/simulator.hpp"
#include "svc/client.hpp"
#include "svc/daemon.hpp"
#include "svc/protocol.hpp"
#include "svc/remote_sweep.hpp"
#include "util/faultpoint.hpp"

namespace hcsim::svc {
namespace {

std::string unique_path(const char* tag, const char* suffix) {
  return "/tmp/hcsim_ftrec_" + std::string(tag) + "_" +
         std::to_string(::getpid()) + suffix;
}

/// The small grid every recovery test reruns: smoke at a short trace length,
/// so one sweep is cheap enough to run several times per test.
exp::SweepSpec small_spec() {
  auto spec = exp::find_sweep("smoke");
  EXPECT_TRUE(spec.has_value());
  spec->trace_lens = {2000};
  return *spec;
}

void remove_dir(const std::string& dir) {
  ::unlink((dir + "/daemon.journal").c_str());
  ::unlink((dir + "/client.journal").c_str());
  ::rmdir(dir.c_str());
}

/// In-thread daemon for socket-level tests (same pattern as
/// test_service.cpp). run_daemon() reloads the fault schedule from the
/// environment on startup, so tests arm their schedules *after* the fixture
/// is up.
class DaemonFixture {
 public:
  explicit DaemonFixture(const char* tag, DaemonOptions base = {})
      : path_(unique_path(tag, ".sock")) {
    thread_ = std::thread([this, base] {
      DaemonOptions opts = base;
      opts.socket_path = path_;
      opts.threads = 1;
      run_daemon(opts);
    });
    for (int i = 0; i < 500 && ::access(path_.c_str(), F_OK) != 0; ++i)
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

  ~DaemonFixture() {
    fault::set_schedule("");  // never shut down through a live fault schedule
    if (thread_.joinable()) {
      std::string error;
      Client c = Client::connect(path_);
      if (c.ok()) c.shutdown(error);
      thread_.join();
    }
    ::unlink(path_.c_str());
  }

  const std::string& path() const { return path_; }

 private:
  std::string path_;
  std::thread thread_;
};

class FaultRecoveryTest : public ::testing::Test {
 protected:
  void TearDown() override { fault::set_schedule(""); }
};

JobRequest small_job(u64 n_records) {
  JobRequest req;
  req.config = exp::SweepSpec().baseline;
  req.profile = rv::rv_workload_profile("crc32");
  req.n_records = n_records;
  return req;
}

// --- protocol round trips ---------------------------------------------------

TEST(Protocol, JobRequestRoundTrip) {
  JobRequest req = small_job(4321);
  req.sampled = true;
  req.warmup = 111;
  req.measure = 222;
  req.period = 3333;
  req.max_windows = 4;

  std::vector<u8> buf;
  encode(buf, req);
  wire::Reader r(buf.data(), buf.size());
  JobRequest back;
  ASSERT_TRUE(decode(r, back));
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_EQ(back.version, req.version);
  EXPECT_EQ(back.n_records, req.n_records);
  EXPECT_EQ(back.sampled, req.sampled);
  EXPECT_EQ(back.warmup, req.warmup);
  EXPECT_EQ(back.measure, req.measure);
  EXPECT_EQ(back.period, req.period);
  EXPECT_EQ(back.max_windows, req.max_windows);
  EXPECT_EQ(back.profile.name, req.profile.name);
  // Full-fidelity check without field-by-field comparison: the re-encoding
  // and the content hash must both match.
  std::vector<u8> buf2;
  encode(buf2, back);
  EXPECT_EQ(buf2, buf);
  EXPECT_EQ(job_id(back), job_id(req));

  // Truncation at every prefix must be detected, never read OOB.
  for (std::size_t cut = 0; cut < buf.size(); ++cut) {
    wire::Reader short_r(buf.data(), cut);
    JobRequest ignored;
    EXPECT_FALSE(decode(short_r, ignored)) << "cut at " << cut;
  }
}

TEST(Protocol, JobResponseAndJobsDoneRoundTrip) {
  JobResponse resp;
  resp.job_id = 0xDEADBEEFCAFEF00DULL;
  resp.from_journal = true;
  resp.result = simulate_workload(exp::SweepSpec().baseline,
                                  small_job(1500).profile, 1500, sample::SampleSpec{});
  std::vector<u8> buf;
  encode(buf, resp);
  wire::Reader r(buf.data(), buf.size());
  JobResponse back;
  ASSERT_TRUE(decode(r, back));
  EXPECT_EQ(back.job_id, resp.job_id);
  EXPECT_EQ(back.from_journal, resp.from_journal);
  std::vector<u8> a, b;
  encode(a, resp.result);
  encode(b, back.result);
  EXPECT_EQ(a, b);

  JobsDone done;
  done.completed = 9;
  done.journal_hits = 4;
  buf.clear();
  encode(buf, done);
  wire::Reader r2(buf.data(), buf.size());
  JobsDone done_back;
  ASSERT_TRUE(decode(r2, done_back));
  EXPECT_EQ(done_back.completed, done.completed);
  EXPECT_EQ(done_back.journal_hits, done.journal_hits);
}

// --- kRunJobs over the socket ----------------------------------------------

TEST_F(FaultRecoveryTest, RunJobsBatchStreamsResultsAndDedupes) {
  const std::string jdir = unique_path("runjobs", ".jdir");
  ::mkdir(jdir.c_str(), 0755);
  DaemonOptions base;
  base.journal_dir = jdir;
  {
    DaemonFixture daemon("runjobs", base);
    Client client = Client::connect(daemon.path());
    ASSERT_TRUE(client.ok()) << client.error();

    const std::vector<JobRequest> reqs = {small_job(1500), small_job(2500)};
    std::vector<JobResponse> got;
    JobsDone done;
    std::string error;
    ASSERT_EQ(client.run_jobs(
                  reqs, [&](const JobResponse& r) { got.push_back(r); }, done,
                  error),
              Client::BatchStatus::kDone)
        << error;
    EXPECT_EQ(done.completed, 2u);
    EXPECT_EQ(done.journal_hits, 0u);
    ASSERT_EQ(got.size(), 2u);
    for (const JobResponse& r : got) EXPECT_FALSE(r.from_journal);

    // Same batch again on the same connection: everything from the journal.
    got.clear();
    ASSERT_EQ(client.run_jobs(
                  reqs, [&](const JobResponse& r) { got.push_back(r); }, done,
                  error),
              Client::BatchStatus::kDone)
        << error;
    EXPECT_EQ(done.journal_hits, 2u);
    for (const JobResponse& r : got) EXPECT_TRUE(r.from_journal);

    // Version skew is a semantic verdict (kRemoteError), not a transport
    // failure — the connection survives.
    std::vector<JobRequest> bad = reqs;
    bad[0].version = 99;
    EXPECT_EQ(client.run_jobs(bad, nullptr, done, error),
              Client::BatchStatus::kRemoteError);
    EXPECT_NE(error.find("version"), std::string::npos) << error;
    EXPECT_TRUE(client.ping(error)) << error;
  }
  remove_dir(jdir);
}

TEST_F(FaultRecoveryTest, EintrStormAndShortIoAreInvisible) {
  DaemonFixture daemon("eintr");
  Client client = Client::connect(daemon.path());
  ASSERT_TRUE(client.ok()) << client.error();

  // Finite storms of retryable conditions on every socket path, both sides:
  // EINTR on read/write/poll plus 1-byte short reads and writes. None of it
  // may surface — these are exactly the conditions the io helpers absorb.
  fault::set_schedule(
      "sock.read.eintr:1:500,sock.write.eintr:1:500,sock.poll.eintr:1:500,"
      "sock.read.short:1:500,sock.write.short:1:500");

  std::string error;
  EXPECT_TRUE(client.ping(error)) << error;
  const std::vector<JobRequest> reqs = {small_job(1500)};
  JobsDone done;
  ASSERT_EQ(client.run_jobs(reqs, nullptr, done, error),
            Client::BatchStatus::kDone)
      << error;
  EXPECT_EQ(done.completed, 1u);

  // The storm actually happened (the schedule was not a no-op).
  EXPECT_GT(fault::hits("sock.read.eintr"), 0u);
  EXPECT_GT(fault::hits("sock.write.eintr"), 0u);
  fault::set_schedule("");
  EXPECT_TRUE(client.ping(error)) << error;
}

// --- run_sweep_ft recovery matrix -------------------------------------------

TEST_F(FaultRecoveryTest, MidFrameDisconnectReconnectsAndMatchesByteForByte) {
  const exp::SweepSpec spec = small_spec();
  const exp::SweepResult reference = exp::run_sweep(spec, exp::RunOptions{});
  const std::string csv_ref = exp::to_csv(reference);

  const std::string ddir = unique_path("midframe", ".ddir");
  const std::string cdir = unique_path("midframe", ".cdir");
  DaemonOptions base;
  base.journal_dir = ddir;
  {
    DaemonFixture daemon("midframe", base);
    // Sever the daemon's 4th result write mid-stream (ECONNRESET). Only the
    // daemon-domain entry is armed, so the client's own socket writes are
    // untouched. The daemon keeps simulating and journaling after the
    // stream dies, so the re-submission is served as pure journal hits.
    fault::set_schedule("daemon.sock.write.reset:4");

    FtSweepOptions opts;
    opts.socket_path = daemon.path();
    opts.journal_dir = cdir;
    opts.retries = 5;
    opts.backoff_base_ms = 1;
    exp::SweepResult result;
    FtSweepStats stats;
    std::string error;
    ASSERT_EQ(run_sweep_ft(spec, opts, result, stats, error), FtStatus::kOk)
        << error;
    EXPECT_EQ(exp::to_csv(result), csv_ref);
    EXPECT_GE(stats.reconnects, 1u);
    EXPECT_GE(stats.daemon_journal_hits, 1u);
    EXPECT_EQ(stats.local_jobs, 0u);  // the daemon recovered, not the fallback
    fault::set_schedule("");

    // A rerun resumes entirely from the client journal: no sockets touched.
    exp::SweepResult rerun;
    FtSweepStats stats2;
    ASSERT_EQ(run_sweep_ft(spec, opts, rerun, stats2, error), FtStatus::kOk)
        << error;
    EXPECT_EQ(exp::to_csv(rerun), csv_ref);
    EXPECT_EQ(stats2.client_journal_hits, stats2.jobs);
    EXPECT_EQ(stats2.connect_attempts, 0u);
  }
  remove_dir(ddir);
  remove_dir(cdir);
}

TEST_F(FaultRecoveryTest, TornClientJournalTailStillResumesCleanly) {
  const exp::SweepSpec spec = small_spec();
  const std::string cdir = unique_path("torn", ".cdir");

  FtSweepOptions opts;
  opts.journal_dir = cdir;  // no socket: journaled local mode
  exp::SweepResult first;
  FtSweepStats stats;
  std::string error;
  ASSERT_EQ(run_sweep_ft(spec, opts, first, stats, error), FtStatus::kOk)
      << error;
  const std::string csv_ref = exp::to_csv(first);
  EXPECT_EQ(stats.local_jobs, stats.jobs);

  // Tear the journal's tail as a crash-mid-append would.
  const std::string jpath = cdir + "/client.journal";
  struct stat st{};
  ASSERT_EQ(::stat(jpath.c_str(), &st), 0);
  ASSERT_EQ(::truncate(jpath.c_str(), st.st_size - 7), 0);

  exp::SweepResult resumed;
  FtSweepStats stats2;
  ASSERT_EQ(run_sweep_ft(spec, opts, resumed, stats2, error), FtStatus::kOk)
      << error;
  EXPECT_EQ(exp::to_csv(resumed), csv_ref);
  // Exactly one job (the torn final record) was recomputed.
  EXPECT_EQ(stats2.local_jobs, 1u);
  EXPECT_EQ(stats2.client_journal_hits, stats2.jobs - 1);
  remove_dir(cdir);
}

TEST_F(FaultRecoveryTest, NoFallbackFailsWithTransportStatusWhenDaemonIsDead) {
  const exp::SweepSpec spec = small_spec();
  FtSweepOptions opts;
  opts.socket_path = unique_path("nodaemon", ".sock");  // nothing listening
  opts.retries = 2;
  opts.backoff_base_ms = 1;
  opts.allow_fallback = false;
  exp::SweepResult result;
  FtSweepStats stats;
  std::string error;
  EXPECT_EQ(run_sweep_ft(spec, opts, result, stats, error),
            FtStatus::kTransportFailed);
  EXPECT_FALSE(error.empty());
  EXPECT_EQ(stats.connect_attempts, 2u);

  // With fallback (the default) the same dead socket still yields the sweep.
  opts.allow_fallback = true;
  ASSERT_EQ(run_sweep_ft(spec, opts, result, stats, error), FtStatus::kOk)
      << error;
  EXPECT_EQ(stats.local_jobs, stats.jobs);
  EXPECT_EQ(exp::to_csv(result),
            exp::to_csv(exp::run_sweep(spec, exp::RunOptions{})));
}

TEST_F(FaultRecoveryTest, LocalFallbackGeneratesEachCellOnce) {
  // No daemon: every job runs in-process, and each cell's trace is held
  // from its first job to its last, so it is generated once per cell, not
  // once per job, and freed when the sweep is done. One thread runs the
  // jobs one after another, so no job of a cell overlaps the next.
  exp::SweepSpec spec = small_spec();
  spec.trace_lens = {2001};  // a length no other test pins
  std::set<std::string> cells;
  for (const exp::ExperimentPoint& p : exp::expand(spec)) cells.insert(p.profile.name);
  FtSweepOptions opts;
  opts.threads = 1;
  exp::SweepResult result;
  FtSweepStats stats;
  std::string error;
  const u64 generated = trace_cache_stats().generated;
  ASSERT_EQ(run_sweep_ft(spec, opts, result, stats, error), FtStatus::kOk) << error;
  EXPECT_EQ(stats.local_jobs, stats.jobs);
  EXPECT_GT(stats.jobs, cells.size());
  EXPECT_EQ(trace_cache_stats().generated - generated, cells.size());
  EXPECT_EQ(trace_cache_stats().live, 0u);
}

TEST_F(FaultRecoveryTest, LocalFallbackSharesSampledStreamedPasses) {
  // No daemon, a sampled smoke grid above a lowered stream threshold: the
  // fallback runs each cell's configs from shared record-stream passes, on
  // four threads, and its CSV must equal both run_sweep's and the one
  // assembled from per-job simulate_workload runs.
  const ScopedEnv threshold("HCSIM_STREAM_THRESHOLD", "1000");
  exp::SweepSpec spec = small_spec();
  spec.trace_lens = {12000};
  FtSweepOptions opts;
  opts.threads = 4;
  opts.sampled = true;
  opts.warmup = 500;
  opts.measure = 1500;
  opts.period = 4000;
  sample::SampleSpec sampling;
  sampling.warmup = opts.warmup;
  sampling.measure = opts.measure;
  sampling.period = opts.period;

  exp::SweepResult result;
  FtSweepStats stats;
  std::string error;
  ASSERT_EQ(run_sweep_ft(spec, opts, result, stats, error), FtStatus::kOk) << error;
  EXPECT_EQ(stats.local_jobs, stats.jobs);

  exp::SweepResult per_job;
  for (const exp::ExperimentPoint& p : exp::expand(spec))
    per_job.points.push_back(exp::make_point(
        p, simulate_workload(spec.baseline, p.profile, p.n_records, sampling),
        simulate_workload(p.variant.machine, p.profile, p.n_records, sampling),
        spec.baseline));
  EXPECT_EQ(exp::to_csv(result), exp::to_csv(per_job));
  sample::set_active_sample_spec(sampling);
  EXPECT_EQ(exp::to_csv(result), exp::to_csv(exp::run_sweep(spec, exp::RunOptions{})));
  sample::set_active_sample_spec(sample::SampleSpec{});
}

/// Forked daemon for abort()-style crash tests: an in-thread daemon cannot
/// abort without taking the test down with it.
pid_t spawn_daemon(const std::string& sock, const std::string& jdir,
                   const char* fault_schedule) {
  const pid_t pid = ::fork();
  if (pid == 0) {
    if (fault_schedule != nullptr)
      ::setenv("HCSIM_FAULT", fault_schedule, 1);
    else
      ::unsetenv("HCSIM_FAULT");
    // Keep the daemon's logging out of the test output.
    std::freopen("/dev/null", "w", stdout);
    std::freopen("/dev/null", "w", stderr);
    DaemonOptions opts;
    opts.socket_path = sock;
    opts.threads = 1;
    opts.journal_dir = jdir;
    ::_exit(run_daemon(opts));
  }
  for (int i = 0; i < 500 && ::access(sock.c_str(), F_OK) != 0; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  return pid;
}

TEST_F(FaultRecoveryTest, DaemonAbortAtJobKThenRestartMatchesByteForByte) {
  const exp::SweepSpec spec = small_spec();
  const std::string csv_ref = exp::to_csv(exp::run_sweep(spec, exp::RunOptions{}));
  const std::string sock = unique_path("abort", ".sock");
  const std::string ddir = unique_path("abort", ".ddir");
  const std::string cdir1 = unique_path("abort1", ".cdir");
  const std::string cdir2 = unique_path("abort2", ".cdir");

  // Phase 1: the daemon abort()s right after simulating its 5th fresh job,
  // before journaling it — every result it handed over before is already
  // durable in its journal. The client
  // rides the transport failure into the in-process fallback and still
  // produces the exact CSV.
  const pid_t crashing = spawn_daemon(sock, ddir, "job.abort:5");
  ASSERT_GT(crashing, 0);
  FtSweepOptions opts;
  opts.socket_path = sock;
  opts.journal_dir = cdir1;
  opts.retries = 2;
  opts.backoff_base_ms = 1;
  exp::SweepResult result;
  FtSweepStats stats;
  std::string error;
  ASSERT_EQ(run_sweep_ft(spec, opts, result, stats, error), FtStatus::kOk)
      << error;
  EXPECT_EQ(exp::to_csv(result), csv_ref);
  EXPECT_GE(stats.remote_jobs, 1u);  // some results arrived before the crash
  EXPECT_GE(stats.local_jobs, 1u);   // the fallback finished the remainder
  int status = 0;
  ASSERT_EQ(::waitpid(crashing, &status, 0), crashing);
  EXPECT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGABRT);

  // Phase 2: restart the daemon clean on the same journal. The crashed
  // daemon left a stale socket file behind; remove it so the socket's
  // reappearance signals the restarted daemon actually listening. A fresh
  // client (fresh client journal) re-submits everything; the jobs the
  // crashed daemon completed come back as journal hits, not recomputation.
  ::unlink(sock.c_str());
  const pid_t restarted = spawn_daemon(sock, ddir, nullptr);
  ASSERT_GT(restarted, 0);
  FtSweepOptions opts2 = opts;
  opts2.journal_dir = cdir2;
  exp::SweepResult result2;
  FtSweepStats stats2;
  ASSERT_EQ(run_sweep_ft(spec, opts2, result2, stats2, error), FtStatus::kOk)
      << error;
  EXPECT_EQ(exp::to_csv(result2), csv_ref);
  EXPECT_GE(stats2.daemon_journal_hits, 1u);
  EXPECT_EQ(stats2.local_jobs, 0u);

  Client c = Client::connect(sock);
  ASSERT_TRUE(c.ok()) << c.error();
  EXPECT_TRUE(c.shutdown(error)) << error;
  ASSERT_EQ(::waitpid(restarted, &status, 0), restarted);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);

  ::unlink(sock.c_str());
  remove_dir(ddir);
  remove_dir(cdir1);
  remove_dir(cdir2);
}

}  // namespace
}  // namespace hcsim::svc
