#include "svc/daemon.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <vector>

#include "svc/io.hpp"
#include "svc/protocol.hpp"
#include "svc/service.hpp"
#include "util/faultpoint.hpp"

namespace hcsim::svc {

namespace {

std::atomic<bool> g_stop{false};

void on_signal(int) { g_stop.store(true, std::memory_order_relaxed); }

class Daemon {
 public:
  explicit Daemon(const DaemonOptions& opts)
      : opts_(opts), service_(opts.threads, opts.journal_dir) {}

  int run() {
    // Domain-tag every fire() on the serve thread so fault schedules can
    // target "daemon.sock.write.reset" without also severing an in-process
    // client's writes (the fixture tests host both ends in one process).
    fault::ScopedDomain domain("daemon");
    const int listen_fd = open_socket();
    if (listen_fd < 0) return 1;
    std::fprintf(stderr, "hcsimd: listening on %s (%u worker threads)\n",
                 opts_.socket_path.c_str(), service_.pool().size());
    if (!opts_.journal_dir.empty()) {
      if (!service_.journal_error().empty())
        std::fprintf(stderr, "hcsimd: WARNING: journal disabled: %s\n",
                     service_.journal_error().c_str());
      else
        std::fprintf(stderr,
                     "hcsimd: journal %s (%llu jobs recovered, %llu torn bytes "
                     "dropped)\n",
                     service_.journal().path().c_str(),
                     static_cast<unsigned long long>(service_.journal().recovered()),
                     static_cast<unsigned long long>(service_.journal().dropped_bytes()));
    }

    bool shutdown_requested = false;
    while (!shutdown_requested && !g_stop.load(std::memory_order_relaxed)) {
      const int timeout =
          opts_.idle_timeout_ms == 0
              ? -1
              : static_cast<int>(std::min<u64>(opts_.idle_timeout_ms, 1u << 30));
      const int r = io::poll_in(listen_fd, timeout, &g_stop);
      if (r < 0) {
        // Interrupted by a shutdown signal, or a hard poll error.
        if (!g_stop.load(std::memory_order_relaxed)) std::perror("hcsimd: poll");
        break;
      }
      if (r == 0) {
        std::fprintf(stderr, "hcsimd: idle for %llums, shutting down\n",
                     static_cast<unsigned long long>(opts_.idle_timeout_ms));
        break;
      }
      const int fd = ::accept(listen_fd, nullptr, nullptr);
      if (fd < 0) {
        if (errno == EINTR) continue;
        std::perror("hcsimd: accept");
        continue;
      }
      shutdown_requested = handle_connection(fd);
      ::close(fd);
    }

    ::close(listen_fd);
    ::unlink(opts_.socket_path.c_str());
    std::fprintf(stderr, "hcsimd: bye\n");
    return 0;
  }

 private:
  int open_socket() {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (opts_.socket_path.size() >= sizeof(addr.sun_path)) {
      std::fprintf(stderr, "hcsimd: socket path too long: %s\n",
                   opts_.socket_path.c_str());
      return -1;
    }
    std::memcpy(addr.sun_path, opts_.socket_path.c_str(),
                opts_.socket_path.size() + 1);

    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
      std::perror("hcsimd: socket");
      return -1;
    }
    ::unlink(opts_.socket_path.c_str());  // replace a stale socket file
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 ||
        ::listen(fd, 16) < 0) {
      std::perror("hcsimd: bind/listen");
      ::close(fd);
      return -1;
    }
    return fd;
  }

  /// Serve one client until EOF, a framing error, or conn_idle_timeout_ms of
  /// silence between requests (connections are served one at a time, so an
  /// idle client must not hold the accept loop hostage). Returns true when
  /// the client asked the daemon to shut down.
  bool handle_connection(int fd) {
    for (;;) {
      if (opts_.conn_idle_timeout_ms != 0) {
        const int timeout = static_cast<int>(
            std::min<u64>(opts_.conn_idle_timeout_ms, 1u << 30));
        const int r = io::poll_in(fd, timeout, &g_stop);
        if (r == 0) {
          std::fprintf(stderr, "hcsimd: dropping idle connection\n");
          return false;
        }
        if (r < 0) return false;  // poll error or shutdown signal
      }
      Frame frame;
      std::string err;
      if (!read_frame(fd, frame, kMaxRequestFrame, &err)) {
        // EOF (err empty) or corrupt framing: either way this byte stream
        // is finished — but the daemon is not.
        if (!err.empty())
          std::fprintf(stderr, "hcsimd: dropping connection: %s\n", err.c_str());
        return false;
      }
      switch (frame.type) {
        case kPing:
          write_frame(fd, kPong, {});
          break;
        case kShutdown:
          write_frame(fd, kBye, {});
          return true;
        case kRunJobs:
          if (!handle_run_jobs(fd, frame)) return false;
          break;
        default:
          write_error(fd, "unknown frame type " + std::to_string(frame.type));
          break;
      }
    }
  }

  /// Returns false when the connection must be dropped (the result stream
  /// died mid-batch, so the byte stream is desynchronized even if the
  /// descriptor still looks alive).
  bool handle_run_jobs(int fd, const Frame& frame) {
    std::vector<JobRequest> reqs;
    wire::Reader r(frame.payload.data(), frame.payload.size());
    u32 n = 0;
    if (!r.get_u32(n) || n > 4096) {
      write_error(fd, "malformed job batch");
      return true;
    }
    reqs.resize(n);
    for (u32 i = 0; i < n; ++i)
      if (!decode(r, reqs[i])) {
        write_error(fd, "malformed job batch");
        return true;
      }
    if (r.remaining() != 0) {
      write_error(fd, "malformed job batch");
      return true;
    }
    SweepService::BatchOutcome outcome;
    std::string error;
    const bool ok = service_.run_jobs(
        reqs,
        [fd](const JobResponse& resp) {
          // Called from pool workers (serialized): re-establish the daemon
          // fault domain for the result write.
          fault::ScopedDomain domain("daemon");
          std::vector<u8> payload;
          encode(payload, resp);
          return write_frame(fd, kJobResult, payload);
        },
        outcome, error);
    if (!ok) {
      std::fprintf(stderr, "hcsimd: job batch failed: %s\n", error.c_str());
      // A dead result stream must NOT be answered with kError: the failure
      // was transport, not verdict, and a client that still sees a live
      // socket (half-open connection) would mistake kError for a semantic
      // rejection and give up instead of re-submitting. Drop the connection.
      if (outcome.stream_lost) return false;
      write_error(fd, error);
      return true;
    }
    std::fprintf(stderr, "hcsimd: %u jobs done (%llu from journal)\n", n,
                 static_cast<unsigned long long>(outcome.journal_hits));
    std::vector<u8> payload;
    encode(payload, JobsDone{outcome.completed, outcome.journal_hits});
    write_frame(fd, kJobsDone, payload);
    return true;
  }

  DaemonOptions opts_;
  SweepService service_;
};

}  // namespace

int run_daemon(const DaemonOptions& opts) {
  if (opts.socket_path.empty()) {
    std::fprintf(stderr, "hcsimd: --socket is required\n");
    return 2;
  }
  // Arm the deterministic fault schedule (HCSIM_FAULT) before anything can
  // hit a fault point; a fresh daemon process starts with fresh counters.
  fault::reload_from_env();
  struct sigaction sa{};
  sa.sa_handler = on_signal;
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);

  Daemon d(opts);
  return d.run();
}

}  // namespace hcsim::svc
