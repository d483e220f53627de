// src/svc — framed protocol, job service, and the daemon loop.
//
// The robustness contract under test: semantic errors (undecodable
// payload, retired or unknown frame types, bad jobs) get a kError reply on
// a connection that stays usable; framing errors drop the connection but
// never the daemon; a client departing mid-batch leaves the daemon alive.
// And the job contract: every job's result is a function of its request
// alone, whatever else shares its batch or the service.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <limits>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "exp/sweep.hpp"
#include "rv/kernels.hpp"
#include "sim/simulator.hpp"
#include "svc/client.hpp"
#include "svc/daemon.hpp"
#include "svc/protocol.hpp"
#include "svc/service.hpp"

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
    });
    // The socket appears once the daemon is listening.
    for (int i = 0; i < 500 && ::access(path_.c_str(), F_OK) != 0; ++i)
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

  ~DaemonFixture() {
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
  base.conn_idle_timeout_ms = 100;
  DaemonFixture daemon("idle", base);

  // First client connects and goes silent — never sends a frame, never
  // closes. Connections are served one at a time, so before the bounded
  // idle wait this parked the daemon forever.
  Client idler = Client::connect(daemon.path());
  ASSERT_TRUE(idler.ok()) << idler.error();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  // Second client must still get service once the idler is dropped.
  Client active = Client::connect(daemon.path());
  ASSERT_TRUE(active.ok()) << active.error();
  std::string error;
  EXPECT_TRUE(active.ping(error)) << error;

  // The idler's connection was closed by the daemon.
  EXPECT_FALSE(idler.ping(error));
}

}  // namespace
}  // namespace hcsim::svc
