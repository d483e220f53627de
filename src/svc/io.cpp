#include "svc/io.hpp"

#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <chrono>

#include "util/faultpoint.hpp"
#include "util/types.hpp"

namespace hcsim::svc::io {

namespace {

/// Absolute deadline so retries (EINTR, EAGAIN, injected faults) never
/// extend the caller's budget.
class Deadline {
 public:
  explicit Deadline(int timeout_ms) : infinite_(timeout_ms < 0) {
    if (!infinite_)
      end_ = std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  }

  /// Remaining budget as a poll() timeout: -1 = infinite, 0 = expired.
  int remaining_ms() const {
    if (infinite_) return -1;
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          end_ - std::chrono::steady_clock::now())
                          .count();
    if (left <= 0) return 0;
    return static_cast<int>(std::min<long long>(left, 1 << 30));
  }

 private:
  bool infinite_;
  std::chrono::steady_clock::time_point end_;
};

int poll_wait(int fd, short events, const Deadline& dl) {
  for (;;) {
    // Simulated EINTR: retried like a real one.
    if (fault::enabled() && fault::fire("sock.poll.eintr")) continue;
    pollfd p{};
    p.fd = fd;
    p.events = events;
    const int r = ::poll(&p, 1, dl.remaining_ms());
    if (r < 0) {
      if (errno == EINTR) continue;
      return -1;
    }
    if (r == 0) return 0;
    if (p.revents & POLLNVAL) return -1;
    // POLLERR/POLLHUP count as ready: the next recv/send surfaces the
    // error or EOF, which is how callers learn what happened.
    return 1;
  }
}

}  // namespace

Status read_exact(int fd, void* buf, std::size_t n, int timeout_ms) {
  const Deadline dl(timeout_ms);
  u8* p = static_cast<u8*>(buf);
  while (n > 0) {
    if (fault::enabled()) {
      if (fault::fire("sock.read.reset")) {
        errno = ECONNRESET;
        return Status::kError;
      }
      if (fault::fire("sock.read.eintr")) continue;  // simulated EINTR: retry
    }
    std::size_t chunk = n;
    if (fault::enabled() && fault::fire("sock.read.short")) chunk = 1;
    const ssize_t got = ::recv(fd, p, chunk, MSG_DONTWAIT);
    if (got > 0) {
      p += got;
      n -= static_cast<std::size_t>(got);
      continue;
    }
    if (got == 0) return Status::kEof;
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      const int r = poll_wait(fd, POLLIN, dl);
      if (r == 0) return Status::kTimeout;
      if (r < 0) return Status::kError;
      continue;
    }
    return Status::kError;
  }
  return Status::kOk;
}

Status write_all(int fd, const void* buf, std::size_t n, int timeout_ms) {
  const Deadline dl(timeout_ms);
  const u8* p = static_cast<const u8*>(buf);
  while (n > 0) {
    if (fault::enabled()) {
      if (fault::fire("sock.write.reset")) {
        errno = ECONNRESET;
        return Status::kError;
      }
      if (fault::fire("sock.write.eintr")) continue;
    }
    std::size_t chunk = n;
    if (fault::enabled() && fault::fire("sock.write.short")) chunk = 1;
    // MSG_NOSIGNAL: a departed peer must surface as an error, not SIGPIPE.
    const ssize_t put = ::send(fd, p, chunk, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (put > 0) {
      p += put;
      n -= static_cast<std::size_t>(put);
      continue;
    }
    if (put < 0 && errno == EINTR) continue;
    if (put < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      const int r = poll_wait(fd, POLLOUT, dl);
      if (r == 0) return Status::kTimeout;
      if (r < 0) return Status::kError;
      continue;
    }
    return Status::kError;
  }
  return Status::kOk;
}

int poll_in(int fd, int timeout_ms) {
  const Deadline dl(timeout_ms);
  return poll_wait(fd, POLLIN, dl);
}

}  // namespace hcsim::svc::io
