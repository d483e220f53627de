// hcsim — socket I/O helpers for the svc layer.
//
// Every socket read/write the daemon and its clients perform, and every wait
// on one connection, funnels through these helpers so that (a) a stray
// signal's EINTR can never abort a healthy connection mid-frame, (b)
// per-request timeouts are enforced with a poll
// deadline rather than SO_RCVTIMEO (whose EAGAIN is indistinguishable from a
// non-blocking socket's), and (c) the deterministic fault harness
// (util/faultpoint.hpp) can inject short reads/writes, EINTR storms and
// connection resets at exact hit counts. Fault points compiled in here:
//
//   sock.read.eintr / sock.read.short / sock.read.reset
//   sock.write.eintr / sock.write.short / sock.write.reset
//   sock.poll.eintr
#pragma once

#include <cstddef>

namespace hcsim::svc::io {

enum class Status {
  kOk,       // the full buffer was transferred
  kEof,      // orderly EOF before (or mid-way through) the buffer
  kTimeout,  // the deadline expired first
  kError,    // hard socket error (errno is meaningful)
};

/// Receive exactly `n` bytes. `timeout_ms < 0` blocks forever; the deadline
/// spans the whole buffer, not each chunk. EINTR and EAGAIN are retried
/// until the deadline.
Status read_exact(int fd, void* buf, std::size_t n, int timeout_ms = -1);

/// Send exactly `n` bytes (SIGPIPE-safe: a departed peer is kError, never a
/// signal). Same deadline semantics as read_exact.
Status write_all(int fd, const void* buf, std::size_t n, int timeout_ms = -1);

/// Wait for POLLIN. Returns 1 when readable (or the peer hung up), 0 on
/// timeout, -1 on error. EINTR is retried with the remaining budget.
int poll_in(int fd, int timeout_ms);

}  // namespace hcsim::svc::io
