// src/svc — framed protocol, job service, and the daemon loop.
//
// The robustness contract under test: semantic errors (undecodable
// payload, retired or unknown frame types, bad jobs) get a kError reply on
// a connection that stays usable; framing errors drop the connection but
// never the daemon; a client departing mid-batch leaves the daemon alive.
// The serving model: connections are served at once, batches take turns on
// the shared pool, and neither an idle client nor one that stops reading
// holds anyone else up or keeps the daemon from shutting down. And the job
// contract: every job's result is a function of its request alone, whatever
// else shares its batch or the service.
#include <gtest/gtest.h>

#include <dirent.h>
#include <poll.h>
#include <sys/ioctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <limits>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "exp/runner.hpp"
#include "exp/sweep.hpp"
#include "rv/kernels.hpp"
#include "scoped_env.hpp"
#include "sim/simulator.hpp"
#include "svc/client.hpp"
#include "svc/daemon.hpp"
#include "svc/protocol.hpp"
#include "svc/service.hpp"
#include "util/faultpoint.hpp"

namespace hcsim::svc {
namespace {

std::string test_socket_path(const char* tag) {
  return "/tmp/hcsimd_test_" + std::string(tag) + "_" + std::to_string(::getpid()) +
         ".sock";
}

// --- framing ------------------------------------------------------------------

TEST(Protocol, FrameRoundTrip) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const std::vector<u8> payload = {1, 2, 3, 250, 0, 7};
  ASSERT_TRUE(write_frame(fds[0], kPing, payload));
  Frame f;
  std::string err;
  ASSERT_TRUE(read_frame(fds[1], f, kMaxRequestFrame, &err)) << err;
  EXPECT_EQ(f.type, kPing);
  EXPECT_EQ(f.payload, payload);

  // Empty payload is a valid frame (len == 1, just the type byte).
  ASSERT_TRUE(write_frame(fds[0], kPong, {}));
  ASSERT_TRUE(read_frame(fds[1], f, kMaxRequestFrame, &err)) << err;
  EXPECT_EQ(f.type, kPong);
  EXPECT_TRUE(f.payload.empty());
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(Protocol, OversizedAndZeroLengthFramesAreRejected) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  // len = 0: below the [1, max] window.
  const u32 zero = 0;
  ASSERT_EQ(::send(fds[0], &zero, sizeof(zero), 0), (ssize_t)sizeof(zero));
  Frame f;
  std::string err;
  EXPECT_FALSE(read_frame(fds[1], f, kMaxRequestFrame, &err));
  EXPECT_FALSE(err.empty());

  // len beyond max_frame: rejected before any allocation.
  const u32 huge = kMaxRequestFrame + 1;
  ASSERT_EQ(::send(fds[0], &huge, sizeof(huge), 0), (ssize_t)sizeof(huge));
  err.clear();
  EXPECT_FALSE(read_frame(fds[1], f, kMaxRequestFrame, &err));
  EXPECT_FALSE(err.empty());
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(Protocol, CleanEofIsNotAnError) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ::close(fds[0]);
  Frame f;
  std::string err = "sentinel";
  EXPECT_FALSE(read_frame(fds[1], f, kMaxRequestFrame, &err));
  EXPECT_TRUE(err.empty());  // EOF, not corruption
  ::close(fds[1]);
}

// --- service ------------------------------------------------------------------

/// A short rv:crc32 job on the sweep baseline machine, with `breakage`
/// applied to its config.
JobRequest job_with(void (*breakage)(MachineConfig&)) {
  JobRequest req;
  req.config = exp::SweepSpec().baseline;
  breakage(req.config);
  req.profile = rv::rv_workload_profile("crc32");
  req.n_records = 1500;
  return req;
}

void unchanged(MachineConfig&) {}

/// Configs the model cannot run: a Pipeline built from one would crash or
/// abort, taking hcsimd with it.
struct Unrunnable {
  const char* rule;
  void (*breakage)(MachineConfig&);
};
const Unrunnable kUnrunnable[] = {
    {"copy_ports", [](MachineConfig& c) { c.copy_ports = 0; }},
    {"rob_entries", [](MachineConfig& c) { c.rob_entries = 0; }},
    // A 32 GiB ROB ring: the allocation used to throw bad_alloc and abort.
    {"rob_entries", [](MachineConfig& c) { c.rob_entries = 4294967295u; }},
    {"issue_wide", [](MachineConfig& c) { c.issue_wide = 0; }},
    {"issue_helper", [](MachineConfig& c) { c.issue_helper = 0; }},
    {"ticks_per_wide_cycle", [](MachineConfig& c) { c.ticks_per_wide_cycle = 0; }},
};

TEST(SweepService, RunJobsRefusesUnrunnableConfigsBeforeSimulating) {
  SweepService service(/*threads=*/1);
  for (const Unrunnable& u : kUnrunnable) {
    // The bad job comes second: the batch is refused before the good one
    // simulates or streams anything.
    const std::vector<JobRequest> reqs = {job_with(unchanged), job_with(u.breakage)};
    int streamed = 0;
    SweepService::BatchOutcome outcome;
    std::string error;
    EXPECT_FALSE(service.run_jobs(
        reqs,
        [&](const JobResponse&) {
          ++streamed;
          return true;
        },
        outcome, error))
        << u.rule;
    EXPECT_NE(error.find(u.rule), std::string::npos) << error;
    EXPECT_EQ(streamed, 0) << u.rule;
    EXPECT_EQ(outcome.completed, 0u) << u.rule;
  }
}

/// job_with(unchanged) over `n_records` µops, sampled when `measure` is
/// nonzero.
JobRequest job_sampled(u64 n_records, u64 warmup, u64 measure, u64 period) {
  JobRequest req = job_with(unchanged);
  req.n_records = n_records;
  req.sampled = measure != 0;
  req.warmup = warmup;
  req.measure = measure;
  req.period = period;
  return req;
}

std::vector<u8> encoded(const SimResult& result) {
  std::vector<u8> buf;
  encode(buf, result);
  return buf;
}

/// Poll `done` every millisecond until it holds or `limit` passes.
template <typename Pred>
bool wait_until(Pred done, std::chrono::milliseconds limit) {
  const auto end = std::chrono::steady_clock::now() + limit;
  while (!done()) {
    if (std::chrono::steady_clock::now() >= end) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

/// Run `reqs` as one batch; the encoded result of every job, by job id.
std::map<u64, std::vector<u8>> run_encoded(SweepService& service,
                                           const std::vector<JobRequest>& reqs) {
  std::map<u64, std::vector<u8>> out;
  SweepService::BatchOutcome outcome;
  std::string error;
  EXPECT_TRUE(service.run_jobs(
      reqs,
      [&out](const JobResponse& resp) {
        out[resp.job_id] = encoded(resp.result);
        return true;
      },
      outcome, error))
      << error;
  EXPECT_EQ(outcome.completed, reqs.size());
  return out;
}

TEST(SweepService, BadVersionAndBadSampleSpecAreErrors) {
  JobRequest bad_version = job_with(unchanged);
  bad_version.version = 99;
  const std::pair<JobRequest, const char*> cases[] = {
      {bad_version, "version"},
      {job_sampled(19, 1, std::numeric_limits<u64>::max(), 0), "overflows"},
      {job_sampled(20000, 5000, 5000, 100), "period"},
  };
  SweepService service(/*threads=*/1);
  for (const auto& [bad, rule] : cases) {
    // The bad job comes second: the batch is refused before the good one
    // simulates or streams anything.
    int streamed = 0;
    SweepService::BatchOutcome outcome;
    std::string error;
    EXPECT_FALSE(service.run_jobs(
        {job_with(unchanged), bad},
        [&](const JobResponse&) {
          ++streamed;
          return true;
        },
        outcome, error))
        << rule;
    EXPECT_NE(error.find(rule), std::string::npos) << error;
    EXPECT_EQ(streamed, 0) << rule;
  }
}

TEST(SweepService, MixedSpecBatchReturnsEachJobsOwnResult) {
  // One batch, two sample specs over the same trace: each job gets what
  // simulate_workload computes under its own spec.
  const std::vector<JobRequest> reqs = {job_sampled(6000, 0, 0, 0),
                                        job_sampled(6000, 500, 1000, 2000)};
  SweepService service(/*threads=*/2);
  const std::map<u64, std::vector<u8>> got = run_encoded(service, reqs);
  ASSERT_EQ(got.size(), reqs.size());
  std::vector<std::vector<u8>> want;
  for (const JobRequest& req : reqs) {
    sample::SampleSpec spec;
    ASSERT_EQ(sample_spec_of(req, spec), "");
    want.push_back(
        encoded(simulate_workload(req.config, req.profile, req.n_records, spec)));
    EXPECT_EQ(got.at(job_id(req)), want.back()) << "sampled=" << req.sampled;
  }
  EXPECT_NE(want[0], want[1]);  // the two specs really give different results
}

TEST(SweepService, ConcurrentBatchesMatchSerialCalls) {
  // Two batches on one service at once, each under its own sample spec,
  // get exactly what they get one after the other.
  std::vector<JobRequest> full, sampled;
  for (u64 n : {3000, 4500, 6000}) {
    full.push_back(job_sampled(n, 0, 0, 0));
    sampled.push_back(job_sampled(n, 300, 700, 1500));
  }
  SweepService service(/*threads=*/2);
  const std::map<u64, std::vector<u8>> serial_full = run_encoded(service, full);
  const std::map<u64, std::vector<u8>> serial_sampled = run_encoded(service, sampled);
  std::map<u64, std::vector<u8>> both_full, both_sampled;
  std::thread other([&] { both_sampled = run_encoded(service, sampled); });
  both_full = run_encoded(service, full);
  other.join();
  EXPECT_EQ(both_full, serial_full);
  EXPECT_EQ(both_sampled, serial_sampled);
  EXPECT_NE(serial_full, serial_sampled);
}

TEST(SweepService, EachJobReadsItsOwnProfilesTrace) {
  // gcc, then gcc with other knobs under the same name and seed, then gcc
  // again: on one worker the first gcc trace is held while the second
  // profile's job runs, and that job must not be handed it.
  JobRequest stock;
  stock.config = exp::SweepSpec().baseline;
  stock.profile = spec_profile("gcc");
  stock.n_records = 20000;
  JobRequest knobs = stock;
  knobs.profile.p_store = 0.0;
  knobs.profile.w_fp_chain = 2.0;
  knobs.profile.num_loops = 3;
  JobRequest stock_helper = stock;
  stock_helper.config = helper_machine(steering_888());
  const std::vector<JobRequest> reqs = {stock, knobs, stock_helper};
  SweepService service(/*threads=*/1);
  const std::map<u64, std::vector<u8>> got = run_encoded(service, reqs);
  ASSERT_EQ(got.size(), reqs.size());
  for (const JobRequest& req : reqs)
    EXPECT_EQ(got.at(job_id(req)),
              encoded(simulate_streamed(req.config, req.profile, req.n_records)))
        << "p_store=" << req.profile.p_store;
}

TEST(SweepService, BatchGeneratesEachTraceOnceAndKeepsNone) {
  // Batches one after the other, each over two unsampled cached cells (gcc
  // and mcf at its own seed) of three configs: each batch streams each
  // cell's pcs and outcomes from the generator once and takes no trace
  // from the trace cache, and no cell is left alive after it, so the third
  // batch, a repeat of the first, builds its cells again.
  SweepService service(/*threads=*/2);
  for (u64 seed : {4301, 4302, 4301}) {
    std::vector<JobRequest> reqs;
    for (const char* app : {"gcc", "mcf"})
      for (const MachineConfig& cfg :
           {monolithic_baseline(), helper_machine(steering_888()),
            helper_machine(steering_ir())}) {
        JobRequest req;
        req.config = cfg;
        req.profile = spec_profile(app);
        req.profile.seed = seed;
        req.n_records = 3000;
        reqs.push_back(req);
      }
    const u64 generated = trace_cache_stats().generated;
    const u64 built = exp::cell_stats().built;
    EXPECT_EQ(run_encoded(service, reqs).size(), reqs.size());
    EXPECT_EQ(exp::cell_stats().live, 0u) << seed;
    EXPECT_EQ(exp::cell_stats().built - built, 2u) << seed;
    EXPECT_EQ(trace_cache_stats().generated, generated) << seed;
    EXPECT_EQ(trace_cache_stats().live, 0u) << seed;
  }
}

TEST(SweepService, LostStreamWithoutAJournalSkipsTheRest) {
  // The job.abort fault point counts fresh simulations; armed at a hit the
  // test never reaches, it only counts.
  std::vector<JobRequest> reqs;
  for (u64 i = 0; i < 12; ++i) reqs.push_back(job_sampled(1500 + i, 0, 0, 0));
  const auto lose_stream = [&](SweepService& service) {
    fault::set_schedule("job.abort:1000000");
    int sent = 0;
    SweepService::BatchOutcome outcome;
    std::string error;
    EXPECT_FALSE(service.run_jobs(
        reqs,
        [&](const JobResponse&) {
          ++sent;
          return false;
        },
        outcome, error));
    EXPECT_TRUE(outcome.stream_lost);
    EXPECT_EQ(sent, 1);
    const u64 simulated = fault::hits("job.abort");
    fault::set_schedule("");
    EXPECT_EQ(simulated + outcome.skipped, reqs.size());
    return simulated;
  };
  // No journal: the results have nowhere to go. On one worker the first
  // job ran, and at most the one queued while its result was handed over.
  SweepService bare(/*threads=*/1);
  EXPECT_LE(lose_stream(bare), 2u);
  // With a journal every job still runs, for the client's re-submission.
  const std::string dir = "/tmp/hcsim_skip_test_" + std::to_string(::getpid());
  {
    SweepService journaled(/*threads=*/1, dir);
    ASSERT_EQ(journaled.journal_error(), "");
    EXPECT_EQ(lose_stream(journaled), reqs.size());
    EXPECT_EQ(journaled.journal().size(), reqs.size());
  }
  ::unlink((dir + "/daemon.journal").c_str());
  ::rmdir(dir.c_str());
}

TEST(SweepService, InterleavedBatchGeneratesEachTraceOnce) {
  // Jobs of two traces, interleaved A, B, A, B, on one worker: the batch
  // groups them per trace, so it builds two unsampled cells, not four, and
  // generates no trace in the trace cache.
  std::vector<JobRequest> reqs;
  for (const MachineConfig& cfg : {monolithic_baseline(), helper_machine(steering_888())})
    for (const char* app : {"gcc", "mcf"}) {
      JobRequest req;
      req.config = cfg;
      req.profile = spec_profile(app);
      req.profile.seed = 4303;  // a seed no other test pins
      req.n_records = 3000;
      reqs.push_back(req);
    }
  SweepService service(/*threads=*/1);
  const u64 generated = trace_cache_stats().generated;
  const u64 built = exp::cell_stats().built;
  const std::map<u64, std::vector<u8>> got = run_encoded(service, reqs);
  EXPECT_EQ(exp::cell_stats().built - built, 2u);
  EXPECT_EQ(exp::cell_stats().live, 0u);
  EXPECT_EQ(trace_cache_stats().generated, generated);
  EXPECT_EQ(trace_cache_stats().live, 0u);
  for (const JobRequest& req : reqs)
    EXPECT_EQ(got.at(job_id(req)),
              encoded(simulate_workload(req.config, req.profile, req.n_records,
                                        sample::SampleSpec{})));
}

TEST(SweepService, JournalHitsAreAnsweredFirst) {
  // [fresh, hit, fresh, hit] on a journaled service: both hits are streamed
  // before either fresh job's result.
  const std::string dir = "/tmp/hcsim_hits_first_test_" + std::to_string(::getpid());
  const std::vector<JobRequest> reqs = {job_sampled(1600, 0, 0, 0), job_sampled(1700, 0, 0, 0),
                                        job_sampled(1800, 0, 0, 0), job_sampled(1900, 0, 0, 0)};
  {
    SweepService service(/*threads=*/1, dir);
    ASSERT_EQ(service.journal_error(), "");
    EXPECT_EQ(run_encoded(service, {reqs[1], reqs[3]}).size(), 2u);
    std::vector<u64> order;
    SweepService::BatchOutcome outcome;
    std::string error;
    ASSERT_TRUE(service.run_jobs(
        reqs,
        [&](const JobResponse& resp) {
          order.push_back(resp.job_id);
          return true;
        },
        outcome, error))
        << error;
    EXPECT_EQ(outcome.journal_hits, 2u);
    ASSERT_EQ(order.size(), reqs.size());
    EXPECT_EQ(order[0], job_id(reqs[1]));
    EXPECT_EQ(order[1], job_id(reqs[3]));
  }
  ::unlink((dir + "/daemon.journal").c_str());
  ::rmdir(dir.c_str());
}

TEST(SweepService, SampledStreamedBatchMatchesPerJobRuns) {
  // Above a lowered stream threshold, a batch's sampled jobs of one trace
  // share record-stream passes. Two traces of three configs, interleaved,
  // on two workers: each result must equal its own simulate_workload run.
  const ScopedEnv threshold("HCSIM_STREAM_THRESHOLD", "1000");
  std::vector<JobRequest> reqs;
  for (const MachineConfig& cfg : {monolithic_baseline(), helper_machine(steering_888()),
                                   helper_machine(steering_888_br_lr_cr())})
    for (const char* app : {"gcc", "twolf"}) {
      JobRequest req = job_sampled(12000, 500, 1500, 4000);
      req.config = cfg;
      req.profile = spec_profile(app);
      reqs.push_back(req);
    }
  SweepService service(/*threads=*/2);
  const std::map<u64, std::vector<u8>> got = run_encoded(service, reqs);
  ASSERT_EQ(got.size(), reqs.size());
  for (const JobRequest& req : reqs) {
    sample::SampleSpec spec;
    ASSERT_EQ(sample_spec_of(req, spec), "");
    EXPECT_EQ(got.at(job_id(req)),
              encoded(simulate_workload(req.config, req.profile, req.n_records, spec)))
        << req.profile.name;
  }
}

TEST(SweepService, OneJobBatchOvertakesABigSampledStreamedBatch) {
  // 3 x kMaxPassConfigs sampled jobs on one streamed trace, on one worker.
  // Two jobs per thread would make two passes of 12 configs, so a one-job
  // batch sent after the first result would wait behind the second, the
  // last; in passes of at most kMaxPassConfigs it runs before the third.
  const ScopedEnv threshold("HCSIM_STREAM_THRESHOLD", "1000");
  std::vector<JobRequest> big;
  for (std::size_t k = 0; k < 3 * exp::kMaxPassConfigs; ++k) {
    JobRequest req = job_sampled(40000, 1000, 8000, 10000);
    req.config.rob_entries = static_cast<unsigned>(100 + k);
    big.push_back(req);
  }
  SweepService service(/*threads=*/1);
  std::atomic<int> finished{0};
  std::atomic<bool> big_started{false};
  int big_rank = -1;
  std::thread t([&] {
    SweepService::BatchOutcome outcome;
    std::string error;
    EXPECT_TRUE(service.run_jobs(
        big,
        [&](const JobResponse&) {
          big_started.store(true);
          return true;
        },
        outcome, error))
        << error;
    EXPECT_EQ(outcome.completed, big.size());
    big_rank = finished++;
  });
  // (No ASSERT while `t` runs: leaving early would destroy it unjoined.)
  EXPECT_TRUE(wait_until([&] { return big_started.load(); }, std::chrono::seconds(30)));
  EXPECT_EQ(run_encoded(service, {job_sampled(20000, 0, 0, 0)}).size(), 1u);
  const int small_rank = finished++;
  t.join();
  EXPECT_EQ(small_rank, 0);
  EXPECT_EQ(big_rank, 1);
}

// --- daemon -------------------------------------------------------------------

/// Daemon running on a background thread for client round-trip tests.
/// `base` overrides DaemonOptions defaults (timeouts); socket path and
/// thread count are always set by the fixture.
class DaemonFixture {
 public:
  explicit DaemonFixture(const char* tag, DaemonOptions base = {})
      : path_(test_socket_path(tag)) {
    thread_ = std::thread([this, base] {
      DaemonOptions opts = base;
      opts.socket_path = path_;
      opts.threads = 1;
      run_daemon(opts);
      returned_.store(true);
    });
    // The socket appears once the daemon is listening.
    for (int i = 0; i < 500 && ::access(path_.c_str(), F_OK) != 0; ++i)
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

  ~DaemonFixture() {
    if (thread_.joinable()) {
      std::string error;
      if (!returned_.load()) {
        Client c = Client::connect(path_);
        if (c.ok()) c.shutdown(error);
      }
      thread_.join();
    }
    ::unlink(path_.c_str());
  }

  const std::string& path() const { return path_; }

  /// True once run_daemon has returned, waiting up to `limit` for it.
  bool wait_returned(std::chrono::milliseconds limit) const {
    return wait_until([this] { return returned_.load(); }, limit);
  }

 private:
  std::string path_;
  std::thread thread_;
  std::atomic<bool> returned_{false};
};

/// `n` distinct full-run jobs, job i of `n_records + i` µops.
std::vector<JobRequest> jobs_from(u64 n_records, u64 n) {
  std::vector<JobRequest> reqs;
  for (u64 i = 0; i < n; ++i) reqs.push_back(job_sampled(n_records + i, 0, 0, 0));
  return reqs;
}

/// Threads in this process.
std::size_t thread_count() {
  std::size_t n = 0;
  if (DIR* d = ::opendir("/proc/self/task")) {
    while (const dirent* e = ::readdir(d)) n += e->d_name[0] != '.';
    ::closedir(d);
  }
  return n;
}

TEST(Daemon, PingAndJobBatchesOverTheSocket) {
  DaemonFixture daemon("basic");
  Client client = Client::connect(daemon.path());
  ASSERT_TRUE(client.ok()) << client.error();

  std::string error;
  EXPECT_TRUE(client.ping(error)) << error;

  // Two batches on one connection: the second reuses it and gets the same
  // results, which are the in-process ones.
  const std::vector<JobRequest> reqs = {job_sampled(1500, 0, 0, 0),
                                        job_sampled(3000, 0, 0, 0)};
  std::map<u64, std::vector<u8>> first, second;
  for (std::map<u64, std::vector<u8>>* got : {&first, &second}) {
    JobsDone done;
    ASSERT_EQ(client.run_jobs(
                  reqs,
                  [got](const JobResponse& resp) {
                    (*got)[resp.job_id] = encoded(resp.result);
                  },
                  done, error),
              Client::BatchStatus::kDone)
        << error;
    EXPECT_EQ(done.completed, reqs.size());
  }
  ASSERT_EQ(first.size(), reqs.size());
  EXPECT_EQ(first, second);
  for (const JobRequest& req : reqs)
    EXPECT_EQ(first.at(job_id(req)),
              encoded(simulate_workload(req.config, req.profile, req.n_records,
                                        sample::SampleSpec{})));
}

TEST(Daemon, SemanticErrorKeepsConnectionFramingErrorDropsIt) {
  DaemonFixture daemon("robust");
  Client client = Client::connect(daemon.path());
  ASSERT_TRUE(client.ok()) << client.error();

  // Undecodable job batch (one job announced, none sent): kError reply,
  // connection stays usable.
  ASSERT_TRUE(write_frame(client.fd(), kRunJobs, {0x01, 0x00, 0x00, 0x00, 0xFF}));
  Frame f;
  std::string err;
  ASSERT_TRUE(read_frame(client.fd(), f, kMaxResponseFrame, &err)) << err;
  EXPECT_EQ(f.type, kError);
  std::string error;
  EXPECT_TRUE(client.ping(error)) << error;

  // Unknown frame types, the retired ones (kSweep, kListSweeps, kCancel,
  // kServeTrace) included: also semantic, also survivable.
  for (const u8 type : {u8{0x01}, u8{0x02}, u8{0x04}, u8{0x06}, u8{0x7E}}) {
    ASSERT_TRUE(write_frame(client.fd(), type, {}));
    ASSERT_TRUE(read_frame(client.fd(), f, kMaxResponseFrame, &err)) << err;
    EXPECT_EQ(f.type, kError) << int{type};
    EXPECT_TRUE(client.ping(error)) << int{type} << ": " << error;
  }

  // Framing corruption (oversized len): the daemon drops this connection...
  const u32 huge = 0xFFFFFFFF;
  ASSERT_EQ(::send(client.fd(), &huge, sizeof(huge), MSG_NOSIGNAL),
            (ssize_t)sizeof(huge));
  EXPECT_FALSE(read_frame(client.fd(), f, kMaxResponseFrame, &err));

  // ... but not itself: a fresh connection works.
  Client again = Client::connect(daemon.path());
  ASSERT_TRUE(again.ok()) << again.error();
  EXPECT_TRUE(again.ping(error)) << error;
}

TEST(SweepService, UnrunnableConfigBatchIsARemoteErrorAndTheDaemonLives) {
  DaemonFixture daemon("badcfg");
  Client client = Client::connect(daemon.path());
  ASSERT_TRUE(client.ok()) << client.error();
  JobsDone done;
  std::string error;
  for (const Unrunnable& u : kUnrunnable) {
    EXPECT_EQ(client.run_jobs({job_with(u.breakage)}, nullptr, done, error),
              Client::BatchStatus::kRemoteError)
        << u.rule;
    EXPECT_NE(error.find(u.rule), std::string::npos) << error;
    EXPECT_TRUE(client.ping(error)) << u.rule << ": " << error;
  }
  // The same connection still runs a good batch.
  ASSERT_EQ(client.run_jobs({job_with(unchanged)}, nullptr, done, error),
            Client::BatchStatus::kDone)
      << error;
  EXPECT_EQ(done.completed, 1u);
}

TEST(SweepService, BadSampleSpecIsARemoteErrorAndTheDaemonLives) {
  DaemonFixture daemon("badspec");
  Client client = Client::connect(daemon.path());
  ASSERT_TRUE(client.ok()) << client.error();
  // warmup + measure wraps to 0 in u64, so the auto period of a 19-µop
  // trace is 0 and the window plan never ends.
  JobRequest overflow = job_sampled(19, 1, std::numeric_limits<u64>::max(), 0);
  // Windows 100 µops apart cannot hold 10000 µops each.
  JobRequest overlap = job_sampled(20000, 5000, 5000, 100);
  const std::pair<const JobRequest*, const char*> cases[] = {{&overflow, "overflows"},
                                                             {&overlap, "period"}};
  JobsDone done;
  std::string error;
  for (const auto& [job, rule] : cases) {
    EXPECT_EQ(client.run_jobs({*job}, nullptr, done, error),
              Client::BatchStatus::kRemoteError)
        << rule;
    EXPECT_NE(error.find(rule), std::string::npos) << error;
    EXPECT_TRUE(client.ping(error)) << rule << ": " << error;
  }
}

TEST(SweepService, UnrunnableProfileBatchIsARemoteErrorAndTheDaemonLives) {
  // Profiles trace generation cannot run: an unknown kernel used to end
  // hcsimd in a fatal error, huge loop and chain counts in bad_alloc or
  // unbounded memory, and a 40-bit footprint in an undefined shift.
  const std::pair<void (*)(WorkloadProfile&), const char*> cases[] = {
      {[](WorkloadProfile& p) { p.rv_kernel = "no_such_kernel"; }, "rv_kernel"},
      {[](WorkloadProfile& p) { p.num_loops = 4000000000u; }, "num_loops"},
      {[](WorkloadProfile& p) { p.body_chains_max = 4000000000u; }, "body_chains_max"},
      {[](WorkloadProfile& p) { p.word_footprint_log2 = 40; }, "word_footprint_log2"},
  };
  DaemonFixture daemon("badprofile");
  Client client = Client::connect(daemon.path());
  ASSERT_TRUE(client.ok()) << client.error();
  JobRequest good;
  good.config = exp::SweepSpec().baseline;
  good.profile = spec_profile("gcc");
  good.n_records = 2000;
  JobsDone done;
  std::string error;
  for (const auto& [breakage, rule] : cases) {
    JobRequest bad = good;
    breakage(bad.profile);
    EXPECT_EQ(client.run_jobs({bad}, nullptr, done, error), Client::BatchStatus::kRemoteError)
        << rule;
    EXPECT_NE(error.find("unrunnable workload profile"), std::string::npos) << error;
    EXPECT_NE(error.find(rule), std::string::npos) << error;
    EXPECT_TRUE(client.ping(error)) << rule << ": " << error;
  }
  // The same connection still runs a good batch.
  ASSERT_EQ(client.run_jobs({good}, nullptr, done, error), Client::BatchStatus::kDone)
      << error;
  EXPECT_EQ(done.completed, 1u);
}

TEST(Daemon, ClientDisconnectMidJobLeavesDaemonAlive) {
  DaemonFixture daemon("cancel");
  {
    Client client = Client::connect(daemon.path());
    ASSERT_TRUE(client.ok()) << client.error();
    std::vector<u8> payload;
    wire::put_u32(payload, 4);
    for (u64 n : {20000, 25000, 30000, 35000}) encode(payload, job_sampled(n, 0, 0, 0));
    ASSERT_TRUE(write_frame(client.fd(), kRunJobs, payload));
    // Depart without reading the results; the daemon's result writes fail
    // (EPIPE) and it drops the connection — it must survive.
  }
  Client probe = Client::connect(daemon.path());
  ASSERT_TRUE(probe.ok()) << probe.error();
  std::string error;
  EXPECT_TRUE(probe.ping(error)) << error;
}

TEST(Daemon, IdleConnectionIsDroppedInsteadOfStarvingOthers) {
  DaemonOptions base;
  base.conn_idle_timeout_ms = 3000;
  DaemonFixture daemon("idle", base);

  // The first client connects and goes silent: it never sends a frame and
  // never closes.
  const auto t0 = std::chrono::steady_clock::now();
  Client idler = Client::connect(daemon.path());
  ASSERT_TRUE(idler.ok()) << idler.error();

  // It holds only its own connection: a second client is answered while
  // the idler is still connected, not after the idler's timeout. Shown by
  // order, not by a wall-clock bound: when the ping returns, the idler's
  // socket has no EOF (nor anything else) to read yet.
  Client active = Client::connect(daemon.path());
  ASSERT_TRUE(active.ok()) << active.error();
  std::string error;
  EXPECT_TRUE(active.ping(error)) << error;
  pollfd idle_fd{idler.fd(), POLLIN, 0};
  EXPECT_EQ(::poll(&idle_fd, 1, 0), 0) << "the idler was dropped before the ping returned";

  // The idler is still dropped once its timeout has passed: it sees EOF.
  Frame f;
  std::string err = "sentinel";
  EXPECT_FALSE(read_frame(idler.fd(), f, kMaxResponseFrame, &err, 10000));
  EXPECT_EQ(err, "");  // EOF, not this read's own deadline
  EXPECT_GE(std::chrono::steady_clock::now() - t0, std::chrono::milliseconds(3000));
}

TEST(Daemon, ConcurrentClientsEachGetTheirOwnSpecsResults) {
  // Two clients send batches at once, one sampled and one full; every
  // result is the in-process one under its own job's spec.
  DaemonFixture daemon("twoclients");
  std::vector<JobRequest> full, sampled;
  for (u64 n : {3000, 4500, 6000}) {
    full.push_back(job_sampled(n, 0, 0, 0));
    sampled.push_back(job_sampled(n, 300, 700, 1500));
  }
  Client a = Client::connect(daemon.path());
  Client b = Client::connect(daemon.path());
  ASSERT_TRUE(a.ok() && b.ok()) << a.error() << b.error();
  std::map<u64, std::vector<u8>> got;
  std::mutex mu;
  const auto send = [&](Client& c, const std::vector<JobRequest>& reqs) {
    c.set_timeout_ms(30000);
    JobsDone done;
    std::string error;
    EXPECT_EQ(c.run_jobs(
                  reqs,
                  [&](const JobResponse& resp) {
                    std::lock_guard<std::mutex> lock(mu);
                    got[resp.job_id] = encoded(resp.result);
                  },
                  done, error),
              Client::BatchStatus::kDone)
        << error;
    EXPECT_EQ(done.completed, reqs.size());
  };
  std::thread other([&] { send(b, sampled); });
  send(a, full);
  other.join();
  ASSERT_EQ(got.size(), full.size() + sampled.size());
  for (const std::vector<JobRequest>* reqs : {&full, &sampled})
    for (const JobRequest& req : *reqs) {
      sample::SampleSpec spec;
      ASSERT_EQ(sample_spec_of(req, spec), "");
      EXPECT_EQ(got.at(job_id(req)),
                encoded(simulate_workload(req.config, req.profile, req.n_records, spec)))
          << "n_records=" << req.n_records << " sampled=" << req.sampled;
    }
}

TEST(Daemon, ShortBatchOvertakesALongOneOnTheSharedPool) {
  // The fixture's pool has one worker. A 1-job batch sent while a 12-job
  // batch runs takes its turn within about one job, so it is done first.
  DaemonFixture daemon("turns");
  Client long_client = Client::connect(daemon.path());
  Client short_client = Client::connect(daemon.path());
  ASSERT_TRUE(long_client.ok() && short_client.ok());
  long_client.set_timeout_ms(30000);
  short_client.set_timeout_ms(10000);

  std::atomic<int> finished{0};
  std::atomic<bool> long_started{false};
  int long_rank = -1;
  std::thread t([&] {
    JobsDone done;
    std::string error;
    EXPECT_EQ(long_client.run_jobs(
                  jobs_from(20000, 12), [&](const JobResponse&) { long_started.store(true); },
                  done, error),
              Client::BatchStatus::kDone)
        << error;
    long_rank = finished++;
  });
  // (No ASSERT while `t` runs: leaving early would destroy it unjoined.)
  EXPECT_TRUE(wait_until([&] { return long_started.load(); }, std::chrono::seconds(10)));
  JobsDone done;
  std::string error;
  EXPECT_EQ(short_client.run_jobs(jobs_from(1500, 1), nullptr, done, error),
            Client::BatchStatus::kDone)
      << error;
  const int short_rank = finished++;
  t.join();
  EXPECT_EQ(short_rank, 0);
  EXPECT_EQ(long_rank, 1);
}

TEST(Daemon, ClientThatNeverReadsDoesNotStopOthers) {
  DaemonFixture daemon("noreader");
  // 160 jobs (a request frame holds about 170) whose results overflow the
  // socket buffers; the client never reads them, so the daemon's result
  // writes to it block.
  const std::vector<JobRequest> reqs = jobs_from(1000, 160);
  Client stalled = Client::connect(daemon.path());
  ASSERT_TRUE(stalled.ok()) << stalled.error();
  std::vector<u8> payload;
  wire::put_u32(payload, static_cast<u32>(reqs.size()));
  for (const JobRequest& req : reqs) encode(payload, req);
  ASSERT_TRUE(write_frame(stalled.fd(), kRunJobs, payload));
  // Wait until the unread results stop piling up: the daemon is stuck
  // writing to this client.
  int queued = -1;
  ASSERT_TRUE(wait_until(
      [&] {
        int now = 0;
        ::ioctl(stalled.fd(), FIONREAD, &now);
        const bool still = now > 0 && now == queued;
        queued = now;
        if (!still) std::this_thread::sleep_for(std::chrono::milliseconds(50));
        return still;
      },
      std::chrono::seconds(10)));
  // ... and really stuck: fewer than all the result frames arrived.
  JobResponse probe;
  probe.result = simulate_workload(reqs[0].config, reqs[0].profile, reqs[0].n_records,
                                   sample::SampleSpec{});
  std::vector<u8> one;
  encode(one, probe);
  ASSERT_LT(static_cast<std::size_t>(queued), reqs.size() * (sizeof(u32) + 1 + one.size()));

  // A second client's batch still runs and streams.
  Client other = Client::connect(daemon.path());
  ASSERT_TRUE(other.ok()) << other.error();
  other.set_timeout_ms(10000);
  JobsDone done;
  std::string error;
  EXPECT_EQ(other.run_jobs(jobs_from(1500, 2), nullptr, done, error),
            Client::BatchStatus::kDone)
      << error;
  EXPECT_EQ(done.completed, 2u);
  // Leaving closes the stalled client first, which fails the daemon's
  // blocked write; then the fixture shuts the daemon down.
}

TEST(Daemon, ShutdownFinishesRunningBatchesAndClosesIdleConnections) {
  DaemonOptions base;
  base.conn_idle_timeout_ms = 0;  // nothing but shutdown ends the idle one
  DaemonFixture daemon("shutdown", base);
  Client idle = Client::connect(daemon.path());
  ASSERT_TRUE(idle.ok()) << idle.error();
  std::string error;
  ASSERT_TRUE(idle.ping(error)) << error;

  Client busy = Client::connect(daemon.path());
  ASSERT_TRUE(busy.ok()) << busy.error();
  busy.set_timeout_ms(30000);
  const std::vector<JobRequest> reqs = jobs_from(20000, 12);
  std::atomic<bool> started{false};
  std::size_t results = 0;
  Client::BatchStatus status = Client::BatchStatus::kTransport;
  JobsDone done;
  std::string busy_error;
  std::thread t([&] {
    status = busy.run_jobs(
        reqs,
        [&](const JobResponse&) {
          ++results;
          started.store(true);
        },
        done, busy_error);
  });
  // (No ASSERT while `t` runs: leaving early would destroy it unjoined.)
  EXPECT_TRUE(wait_until([&] { return started.load(); }, std::chrono::seconds(10)));

  Client stopper = Client::connect(daemon.path());
  stopper.set_timeout_ms(10000);
  EXPECT_TRUE(stopper.shutdown(error)) << error;

  // The running batch finishes and streams every result.
  t.join();
  EXPECT_EQ(status, Client::BatchStatus::kDone) << busy_error;
  EXPECT_EQ(results, reqs.size());
  EXPECT_EQ(done.completed, reqs.size());
  // The idle connection is closed.
  Frame f;
  std::string err = "sentinel";
  EXPECT_FALSE(read_frame(idle.fd(), f, kMaxResponseFrame, &err, 10000));
  EXPECT_EQ(err, "");
  // And the daemon is gone, socket file included.
  EXPECT_TRUE(daemon.wait_returned(std::chrono::seconds(5)));
  EXPECT_NE(::access(daemon.path().c_str(), F_OK), 0);
}

TEST(Daemon, FinishedConnectionThreadsAreJoined) {
  DaemonFixture daemon("reap");
  const auto ping_once = [&] {
    Client c = Client::connect(daemon.path());
    std::string error;
    EXPECT_TRUE(c.ping(error)) << error;
  };
  // The count once the daemon has joined what it can, up to 5 s.
  const auto settled = [](std::size_t target) {
    wait_until([&] { return thread_count() <= target; }, std::chrono::seconds(5));
    return thread_count();
  };
  const std::size_t idle = thread_count();
  ping_once();
  const std::size_t after_first = settled(idle);
  for (int i = 1; i < 100; ++i) ping_once();
  EXPECT_LE(settled(after_first), after_first);
}

}  // namespace
}  // namespace hcsim::svc
