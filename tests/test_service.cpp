// src/svc — framed protocol, sweep service, and the daemon loop.
//
// The robustness contract under test: semantic errors (unknown sweep,
// undecodable payload) get a kError reply on a connection that stays
// usable; framing errors drop the connection but never the daemon; a
// client departing mid-job cancels the job without killing the daemon.
// And the payoff property: a sweep run through the service is
// byte-identical to the same sweep run in-process.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <string>
#include <thread>
#include <vector>

#include "bus/shm_ring.hpp"
#include "bus/trace_bus.hpp"
#include "exp/report.hpp"
#include "exp/runner.hpp"
#include "exp/sweep.hpp"
#include "sample/record_stream.hpp"
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

/// JSON reports embed the run's wall time (the one non-deterministic field);
/// drop those lines so the rest can be compared byte-for-byte.
std::string strip_wall_seconds(const std::string& json) {
  std::string out;
  std::size_t pos = 0;
  while (pos < json.size()) {
    std::size_t eol = json.find('\n', pos);
    if (eol == std::string::npos) eol = json.size();
    const std::string line = json.substr(pos, eol - pos);
    if (line.find("wall_seconds") == std::string::npos) out += line + "\n";
    pos = eol + 1;
  }
  return out;
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

TEST(Protocol, SweepRequestRoundTrip) {
  SweepRequest req;
  req.sweep = "fig06";
  req.trace_len = 123456;
  req.seeds = {7, 11, 13};
  req.sampled = true;
  req.warmup = 2000;
  req.measure = 8000;
  req.period = 50000;
  req.max_windows = 12;
  req.want_csv = true;

  std::vector<u8> buf;
  encode(buf, req);
  wire::Reader r(buf.data(), buf.size());
  SweepRequest back;
  ASSERT_TRUE(decode(r, back));
  EXPECT_EQ(back.version, req.version);
  EXPECT_EQ(back.sweep, req.sweep);
  EXPECT_EQ(back.trace_len, req.trace_len);
  EXPECT_EQ(back.seeds, req.seeds);
  EXPECT_EQ(back.sampled, req.sampled);
  EXPECT_EQ(back.warmup, req.warmup);
  EXPECT_EQ(back.measure, req.measure);
  EXPECT_EQ(back.period, req.period);
  EXPECT_EQ(back.max_windows, req.max_windows);
  EXPECT_EQ(back.want_csv, req.want_csv);
  EXPECT_EQ(back.want_json, req.want_json);

  // Truncation at every prefix length must be detected, never read OOB.
  for (std::size_t cut = 0; cut < buf.size(); ++cut) {
    wire::Reader short_r(buf.data(), cut);
    SweepRequest ignored;
    EXPECT_FALSE(decode(short_r, ignored)) << "cut at " << cut;
  }
}

TEST(Protocol, SweepResponseRoundTrip) {
  SweepResponse resp;
  resp.summary = "summary text\nwith rows";
  resp.csv = "a,b\n1,2\n";
  resp.json = "{}";
  resp.n_points = 42;
  resp.threads_used = 3;
  resp.wall_ms = 777;

  std::vector<u8> buf;
  encode(buf, resp);
  wire::Reader r(buf.data(), buf.size());
  SweepResponse back;
  ASSERT_TRUE(decode(r, back));
  EXPECT_EQ(back.summary, resp.summary);
  EXPECT_EQ(back.csv, resp.csv);
  EXPECT_EQ(back.json, resp.json);
  EXPECT_EQ(back.n_points, resp.n_points);
  EXPECT_EQ(back.threads_used, resp.threads_used);
  EXPECT_EQ(back.wall_ms, resp.wall_ms);
}

TEST(Protocol, SweepListRoundTrip) {
  const std::vector<std::string> names = {"fig06", "smoke", "rv"};
  std::vector<u8> buf;
  encode_sweep_list(buf, names);
  wire::Reader r(buf.data(), buf.size());
  std::vector<std::string> back;
  ASSERT_TRUE(decode_sweep_list(r, back));
  EXPECT_EQ(back, names);
}

// --- service ------------------------------------------------------------------

TEST(SweepService, UnknownSweepIsAnErrorNotAnAbort) {
  SweepService service(/*threads=*/1);
  SweepRequest req;
  req.sweep = "no_such_sweep";
  SweepResponse resp;
  std::string error;
  EXPECT_FALSE(service.run(req, nullptr, resp, error));
  EXPECT_NE(error.find("no_such_sweep"), std::string::npos) << error;
}

TEST(SweepService, BadVersionAndBadSampleSpecAreErrors) {
  SweepService service(/*threads=*/1);
  SweepRequest req;
  req.sweep = "smoke";
  req.version = 99;
  SweepResponse resp;
  std::string error;
  EXPECT_FALSE(service.run(req, nullptr, resp, error));
  EXPECT_NE(error.find("version"), std::string::npos) << error;

  req.version = kProtocolVersion;
  req.sampled = true;
  req.warmup = 5000;
  req.measure = 5000;
  req.period = 100;  // < warmup + measure: inconsistent schedule
  error.clear();
  EXPECT_FALSE(service.run(req, nullptr, resp, error));
  EXPECT_FALSE(error.empty());
}

TEST(SweepService, CancelledJobReportsCancelled) {
  SweepService service(/*threads=*/1);
  SweepRequest req;
  req.sweep = "smoke";
  SweepResponse resp;
  std::string error;
  EXPECT_FALSE(service.run(req, [] { return true; }, resp, error));
  EXPECT_EQ(error, "cancelled");
}

TEST(SweepService, MatchesInProcessSweepByteForByte) {
  SweepRequest req;
  req.sweep = "smoke";
  req.want_csv = true;
  req.want_json = true;
  SweepService service(/*threads=*/1);
  SweepResponse resp;
  std::string error;
  ASSERT_TRUE(service.run(req, nullptr, resp, error)) << error;

  const auto spec = exp::find_sweep("smoke");
  ASSERT_TRUE(spec.has_value());
  exp::RunOptions opts;
  const exp::SweepResult local = exp::run_sweep(*spec, opts);
  EXPECT_EQ(resp.summary, exp::render_summary(local));
  EXPECT_EQ(resp.csv, exp::to_csv(local));
  EXPECT_EQ(strip_wall_seconds(resp.json), strip_wall_seconds(exp::to_json(local)));
  EXPECT_EQ(resp.n_points, local.points.size());
}

/// A short rv:crc32 job on the sweep baseline machine, with `breakage`
/// applied to its config.
JobRequest job_with(void (*breakage)(MachineConfig&)) {
  JobRequest req;
  req.config = exp::SweepSpec().baseline;
  breakage(req.config);
  std::string error;
  EXPECT_TRUE(resolve_workload("rv:crc32", req.profile, error)) << error;
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
        reqs, nullptr,
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

TEST(SweepService, ResolveWorkloadNames) {
  WorkloadProfile profile;
  std::string error;
  ASSERT_TRUE(resolve_workload("rv:crc32", profile, error)) << error;
  EXPECT_EQ(profile.rv_kernel, "crc32");
  ASSERT_TRUE(resolve_workload("gcc", profile, error)) << error;
  EXPECT_EQ(profile.name, "gcc");
  EXPECT_FALSE(resolve_workload("rv:nope", profile, error));
  EXPECT_FALSE(resolve_workload("not_a_profile", profile, error));
}

// --- daemon -------------------------------------------------------------------

/// Daemon running on a background thread for client round-trip tests.
/// `base` overrides DaemonOptions defaults (shm_dir, timeouts); socket path
/// and thread count are always set by the fixture.
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

TEST(Daemon, PingListAndSweepOverTheSocket) {
  DaemonFixture daemon("basic");
  Client client = Client::connect(daemon.path());
  ASSERT_TRUE(client.ok()) << client.error();

  std::string error;
  EXPECT_TRUE(client.ping(error)) << error;

  std::vector<std::string> names;
  ASSERT_TRUE(client.list_sweeps(names, error)) << error;
  EXPECT_EQ(names, exp::sweep_names());

  SweepRequest req;
  req.sweep = "smoke";
  req.want_csv = true;
  SweepResponse resp;
  ASSERT_TRUE(client.sweep(req, resp, error)) << error;
  EXPECT_EQ(resp.n_points, 6u);
  EXPECT_FALSE(resp.csv.empty());

  // The connection is reusable for a second job.
  resp = SweepResponse{};
  ASSERT_TRUE(client.sweep(req, resp, error)) << error;
  EXPECT_EQ(resp.n_points, 6u);
}

TEST(Daemon, SemanticErrorKeepsConnectionFramingErrorDropsIt) {
  DaemonFixture daemon("robust");
  Client client = Client::connect(daemon.path());
  ASSERT_TRUE(client.ok()) << client.error();

  // Undecodable sweep payload: kError reply, connection stays usable.
  ASSERT_TRUE(write_frame(client.fd(), kSweep, {0xFF, 0xFF}));
  Frame f;
  std::string err;
  ASSERT_TRUE(read_frame(client.fd(), f, kMaxResponseFrame, &err)) << err;
  EXPECT_EQ(f.type, kError);
  std::string error;
  EXPECT_TRUE(client.ping(error)) << error;

  // Unknown frame type: also semantic, also survivable.
  ASSERT_TRUE(write_frame(client.fd(), 0x7E, {}));
  ASSERT_TRUE(read_frame(client.fd(), f, kMaxResponseFrame, &err)) << err;
  EXPECT_EQ(f.type, kError);
  EXPECT_TRUE(client.ping(error)) << error;

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

TEST(Daemon, ClientDisconnectMidJobLeavesDaemonAlive) {
  DaemonFixture daemon("cancel");
  {
    Client client = Client::connect(daemon.path());
    ASSERT_TRUE(client.ok()) << client.error();
    SweepRequest req;
    req.sweep = "smoke";
    std::vector<u8> payload;
    encode(payload, req);
    ASSERT_TRUE(write_frame(client.fd(), kSweep, payload));
    // Depart without reading the reply; the daemon notices EOF between
    // points (cancel) or when sending the result (EPIPE) — either way it
    // must survive.
  }
  Client probe = Client::connect(daemon.path());
  ASSERT_TRUE(probe.ok()) << probe.error();
  std::string error;
  EXPECT_TRUE(probe.ping(error)) << error;
}

TEST(Daemon, ExplicitCancelFrameAbortsTheJob) {
  DaemonFixture daemon("cancel2");
  Client client = Client::connect(daemon.path());
  ASSERT_TRUE(client.ok()) << client.error();

  SweepRequest req;
  req.sweep = "smoke";
  req.trace_len = 200000;  // enough points * length for the cancel to land
  std::vector<u8> payload;
  encode(payload, req);
  ASSERT_TRUE(write_frame(client.fd(), kSweep, payload));
  ASSERT_TRUE(client.cancel());

  Frame f;
  std::string err;
  ASSERT_TRUE(read_frame(client.fd(), f, kMaxResponseFrame, &err)) << err;
  // Timing decides whether the cancel landed before the last point; both a
  // cancelled-error and a completed result are protocol-correct, and the
  // connection stays usable either way.
  EXPECT_TRUE(f.type == kError || f.type == kResult);
  std::string error;
  EXPECT_TRUE(client.ping(error)) << error;
}

TEST(Daemon, ServeTraceOutsideShmDirIsRejected) {
  DaemonFixture daemon("shmdir");  // default shm_dir: /dev/shm
  Client client = Client::connect(daemon.path());
  ASSERT_TRUE(client.ok()) << client.error();

  // shm_path is client-controlled and create() may unlink its target, so
  // anything outside the configured directory — absolute escapes, ".."
  // traversal, subdirectories — must come back as kError, and the
  // connection (and daemon) must survive.
  const char* hostile[] = {"/etc/passwd", "/dev/shm/../etc/passwd",
                           "/dev/shm/sub/ring", "/dev/shmext/ring", "relative"};
  for (const char* path : hostile) {
    ServeTraceRequest req;
    req.shm_path = path;
    req.workload = "rv:crc32";
    std::string error;
    EXPECT_FALSE(client.serve_trace(req, error)) << path;
    EXPECT_NE(error.find("shm_path"), std::string::npos) << path << ": " << error;
  }
  std::string error;
  EXPECT_TRUE(client.ping(error)) << error;
}

TEST(Daemon, ServeTraceCreateFailureIsAnErrorNotACrash) {
  // A path that passes confinement but cannot be created (the directory
  // does not exist) must produce kError — before the fix, ShmRing::create
  // aborted the whole daemon here.
  DaemonOptions base;
  base.shm_dir = "/hcsim_no_such_dir";
  DaemonFixture daemon("shmfail", base);
  Client client = Client::connect(daemon.path());
  ASSERT_TRUE(client.ok()) << client.error();

  ServeTraceRequest req;
  req.shm_path = "/hcsim_no_such_dir/ring.shm";
  req.workload = "rv:crc32";
  std::string error;
  EXPECT_FALSE(client.serve_trace(req, error));
  EXPECT_NE(error.find("ring"), std::string::npos) << error;
  EXPECT_TRUE(client.ping(error)) << error;
}

TEST(Daemon, ServeTraceStreamsRecordsBitIdenticalToLocal) {
  DaemonOptions base;
  base.shm_dir = "/tmp";
  DaemonFixture daemon("serve", base);
  Client client = Client::connect(daemon.path());
  ASSERT_TRUE(client.ok()) << client.error();

  const std::string shm_path =
      "/tmp/hcsimd_test_serve_" + std::to_string(::getpid()) + ".shm";
  constexpr u64 kLen = 5000;
  ServeTraceRequest req;
  req.shm_path = shm_path;
  req.workload = "rv:crc32";
  req.trace_len = kLen;
  std::string error;
  ASSERT_TRUE(client.serve_trace(req, error)) << error;

  // kServing means the segment exists; attach and pull a range.
  bus::ShmRing ring = bus::ShmRing::attach(shm_path);
  ASSERT_TRUE(ring.valid()) << ring.error();
  bus::BusRecordStream stream(ring);
  ASSERT_TRUE(stream.ok()) << stream.error();
  std::vector<u8> remote;
  stream.feed_range(0, 500, [&remote](const TraceRecord& rec) {
    wire::put_record(remote, rec);
  });
  ASSERT_TRUE(stream.ok()) << stream.error();

  WorkloadProfile profile;
  ASSERT_TRUE(resolve_workload("rv:crc32", profile, error)) << error;
  auto local_stream = sample::workload_stream_factory(profile, kLen)();
  std::vector<u8> local;
  local_stream->feed_range(0, 500, [&local](const TraceRecord& rec) {
    wire::put_record(local, rec);
  });
  EXPECT_EQ(remote, local);

  // Departing consumer: the daemon reaps the producer and stays serviceable.
  ring.close_read();
  EXPECT_TRUE(client.ping(error)) << error;
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
