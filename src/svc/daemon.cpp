#include "svc/daemon.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <list>
#include <system_error>
#include <thread>
#include <vector>

#include "svc/io.hpp"
#include "svc/protocol.hpp"
#include "svc/service.hpp"
#include "util/faultpoint.hpp"

namespace hcsim::svc {

namespace {

/// Connections served at once, one thread each. Also the listen backlog,
/// where clients past the bound wait for a slot.
constexpr std::size_t kMaxConnections = 16;

std::atomic<bool> g_stop{false};
/// Write end of the running daemon's wake pipe, for the signal handler.
std::atomic<int> g_wake_fd{-1};

/// Make the accept loop look at its state again. Async-signal-safe; the
/// pipe is non-blocking, and a full pipe already holds a pending wake.
void wake(int fd) {
  const char byte = 0;
  while (::write(fd, &byte, 1) < 0 && errno == EINTR) {
  }
}

void on_signal(int) {
  const int saved_errno = errno;
  g_stop.store(true, std::memory_order_relaxed);
  const int fd = g_wake_fd.load(std::memory_order_relaxed);
  if (fd >= 0) wake(fd);
  errno = saved_errno;
}

/// A millisecond option as a poll()/io timeout: 0 (off) is -1 (forever).
int timeout_of(u64 ms) {
  return ms == 0 ? -1 : static_cast<int>(std::min<u64>(ms, 1u << 30));
}

class Daemon {
 public:
  explicit Daemon(const DaemonOptions& opts)
      : opts_(opts),
        conn_timeout_ms_(timeout_of(opts.conn_idle_timeout_ms)),
        service_(opts.threads, opts.journal_dir) {}
  // Connection threads hold `this`.
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  int run() {
    const int listen_fd = open_socket();
    if (listen_fd < 0) return 1;
    if (::pipe2(wake_fds_, O_NONBLOCK | O_CLOEXEC) < 0) {
      std::perror("hcsimd: pipe");
      ::close(listen_fd);
      ::unlink(opts_.socket_path.c_str());
      return 1;
    }
    g_wake_fd.store(wake_fds_[1], std::memory_order_relaxed);
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

    accept_loop(listen_fd);

    // Stop taking clients, then let every connection finish: a running batch
    // streams the rest of its results (its writes still have their
    // deadline), and the next read of every connection sees EOF, which
    // closes the idle ones.
    ::close(listen_fd);
    ::unlink(opts_.socket_path.c_str());
    for (Conn& c : conns_) ::shutdown(c.fd, SHUT_RD);
    for (Conn& c : conns_) {
      c.thread.join();
      ::close(c.fd);
    }
    conns_.clear();
    g_wake_fd.store(-1, std::memory_order_relaxed);
    ::close(wake_fds_[0]);
    ::close(wake_fds_[1]);
    std::fprintf(stderr, "hcsimd: bye\n");
    return 0;
  }

 private:
  /// One open connection. The accept loop owns the list and the descriptor
  /// (it closes it after joining the thread), so a descriptor number is
  /// never reused while anything may still shut it down.
  struct Conn {
    int fd = -1;
    std::thread thread;
    std::atomic<bool> done{false};  // the thread is about to return
  };

  bool stopping() const {
    return g_stop.load(std::memory_order_relaxed) ||
           shutdown_requested_.load(std::memory_order_relaxed);
  }

  /// Accept clients until kShutdown, a signal, or `idle_timeout_ms` with no
  /// connection open. Sleeps in poll() on the listen socket (while a slot is
  /// free) and the wake pipe, which finished connections, kShutdown and
  /// signals write to.
  void accept_loop(int listen_fd) {
    using Clock = std::chrono::steady_clock;
    Clock::time_point idle_since = Clock::now();
    bool idle = true;
    while (!stopping()) {
      reap();
      if (!conns_.empty()) {
        idle = false;
      } else if (!idle) {
        idle = true;
        idle_since = Clock::now();
      }
      int timeout = -1;
      if (idle && opts_.idle_timeout_ms != 0) {
        const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
            idle_since + std::chrono::milliseconds(opts_.idle_timeout_ms) - Clock::now());
        timeout = static_cast<int>(std::clamp<long long>(left.count(), 0, 1 << 30));
      }
      pollfd fds[2] = {{wake_fds_[0], POLLIN, 0}, {listen_fd, POLLIN, 0}};
      const nfds_t nfds = conns_.size() < kMaxConnections ? 2 : 1;
      const int r = ::poll(fds, nfds, timeout);
      if (r < 0) {
        if (errno == EINTR) continue;
        std::perror("hcsimd: poll");
        return;
      }
      if (r == 0) {
        std::fprintf(stderr, "hcsimd: idle for %llums, shutting down\n",
                     static_cast<unsigned long long>(opts_.idle_timeout_ms));
        return;
      }
      if (fds[0].revents != 0) {
        char buf[64];
        while (::read(wake_fds_[0], buf, sizeof(buf)) > 0) {
        }
      }
      if (nfds == 2 && fds[1].revents != 0) accept_one(listen_fd);
    }
  }

  void accept_one(int listen_fd) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno != EINTR) std::perror("hcsimd: accept");
      return;
    }
    Conn& c = conns_.emplace_back();
    c.fd = fd;
    try {
      c.thread = std::thread([this, &c] { serve(c); });
    } catch (const std::system_error& e) {
      std::fprintf(stderr, "hcsimd: cannot serve a connection: %s\n", e.what());
      ::close(fd);
      conns_.pop_back();
    }
  }

  /// Join and close the connections whose threads have finished.
  void reap() {
    for (auto it = conns_.begin(); it != conns_.end();) {
      if (!it->done.load(std::memory_order_acquire)) {
        ++it;
        continue;
      }
      it->thread.join();
      ::close(it->fd);
      it = conns_.erase(it);
    }
  }

  /// A connection's thread.
  void serve(Conn& c) {
    // fault::ScopedDomain is thread-local: tag every fire() on this thread
    // so fault schedules can target "daemon.sock.write.reset" without also
    // severing an in-process client's writes (the fixture tests host both
    // ends in one process).
    fault::ScopedDomain domain("daemon");
    serve_requests(c.fd);
    ::shutdown(c.fd, SHUT_RDWR);  // the client sees EOF now, not at reap
    c.done.store(true, std::memory_order_release);
    wake(wake_fds_[1]);
  }

  /// Answer frames until EOF, a framing error, a failed write, kShutdown, or
  /// conn_idle_timeout_ms of silence between requests.
  void serve_requests(int fd) {
    for (;;) {
      if (conn_timeout_ms_ >= 0) {
        const int r = io::poll_in(fd, conn_timeout_ms_);
        if (r == 0) {
          std::fprintf(stderr, "hcsimd: dropping idle connection\n");
          return;
        }
        if (r < 0) return;
      }
      Frame frame;
      std::string err;
      if (!read_frame(fd, frame, kMaxRequestFrame, &err, conn_timeout_ms_)) {
        // EOF (err empty) or corrupt framing: either way this byte stream
        // is finished — but the daemon is not.
        if (!err.empty())
          std::fprintf(stderr, "hcsimd: dropping connection: %s\n", err.c_str());
        return;
      }
      bool ok = true;
      switch (frame.type) {
        case kPing:
          ok = write_frame(fd, kPong, {}, conn_timeout_ms_);
          break;
        case kShutdown:
          write_frame(fd, kBye, {}, conn_timeout_ms_);
          shutdown_requested_.store(true, std::memory_order_relaxed);
          wake(wake_fds_[1]);
          return;
        case kRunJobs:
          ok = handle_run_jobs(fd, frame);
          break;
        default:
          ok = write_error(fd, "unknown frame type " + std::to_string(frame.type),
                           conn_timeout_ms_);
          break;
      }
      // A failed or timed-out write may have left half a frame behind: the
      // byte stream is desynchronized, so the connection is done.
      if (!ok) return;
    }
  }

  /// Returns false when the connection must be dropped: a write failed, or
  /// the result stream died mid-batch, so the byte stream is desynchronized
  /// even if the descriptor still looks alive.
  bool handle_run_jobs(int fd, const Frame& frame) {
    std::vector<JobRequest> reqs;
    wire::Reader r(frame.payload.data(), frame.payload.size());
    u32 n = 0;
    if (!r.get_u32(n) || n > 4096)
      return write_error(fd, "malformed job batch", conn_timeout_ms_);
    reqs.resize(n);
    for (u32 i = 0; i < n; ++i)
      if (!decode(r, reqs[i])) return write_error(fd, "malformed job batch", conn_timeout_ms_);
    if (r.remaining() != 0) return write_error(fd, "malformed job batch", conn_timeout_ms_);
    SweepService::BatchOutcome outcome;
    std::string error;
    // Results are written on this thread, with the connection's deadline, so
    // a client that stops reading holds only its own connection.
    const bool ok = service_.run_jobs(
        reqs,
        [fd, timeout = conn_timeout_ms_](const JobResponse& resp) {
          std::vector<u8> payload;
          encode(payload, resp);
          return write_frame(fd, kJobResult, payload, timeout);
        },
        outcome, error);
    if (!ok) {
      std::fprintf(stderr, "hcsimd: job batch failed: %s\n", error.c_str());
      // A dead result stream must NOT be answered with kError: the failure
      // was transport, not verdict, and a client that still sees a live
      // socket (half-open connection) would mistake kError for a semantic
      // rejection and give up instead of re-submitting. Drop the connection.
      if (outcome.stream_lost) return false;
      return write_error(fd, error, conn_timeout_ms_);
    }
    std::fprintf(stderr, "hcsimd: %u jobs done (%llu from journal)\n", n,
                 static_cast<unsigned long long>(outcome.journal_hits));
    std::vector<u8> payload;
    encode(payload, JobsDone{outcome.completed, outcome.journal_hits});
    return write_frame(fd, kJobsDone, payload, conn_timeout_ms_);
  }

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
        ::listen(fd, static_cast<int>(kMaxConnections)) < 0) {
      std::perror("hcsimd: bind/listen");
      ::close(fd);
      return -1;
    }
    return fd;
  }

  DaemonOptions opts_;
  int conn_timeout_ms_;  // conn_idle_timeout_ms as a deadline, -1 = none
  SweepService service_;
  int wake_fds_[2] = {-1, -1};
  std::atomic<bool> shutdown_requested_{false};
  std::list<Conn> conns_;  // only the accept loop touches the list
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
