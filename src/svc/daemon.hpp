// hcsim — hcsimd's listen/serve loop.
//
// Lifecycle (documented in docs/PROTOCOL.md):
//   1. bind + listen on a Unix-domain socket (stale socket files are
//      replaced);
//   2. serve up to 16 connections at once, one thread each; further clients
//      wait in the kernel backlog until a connection closes. Batches from
//      different connections take turns on the shared job pool, job by job;
//   3. per connection, answer frames (kRunJobs, kPing, kShutdown) until
//      EOF, a framing error, a failed write, or `conn_idle_timeout_ms` of
//      silence (semantic errors are answered with kError and the connection
//      survives);
//   4. stop on kShutdown, SIGINT/SIGTERM, or after `idle_timeout_ms` with no
//      connection open: stop accepting, unlink the socket, let running
//      batches finish streaming, close idle connections, and return.
#pragma once

#include <string>

#include "util/types.hpp"

namespace hcsim::svc {

struct DaemonOptions {
  std::string socket_path;
  /// Worker threads for the shared sweep pool; 0 = hardware concurrency.
  unsigned threads = 0;
  /// Exit after this long with no connection open; 0 = run until kShutdown
  /// or a signal.
  u64 idle_timeout_ms = 0;
  /// Drop a connection that sends nothing for this long, freeing its slot
  /// (16 connections are served at once). It is also the deadline of every
  /// frame read and write, so a client that stops reading its results holds
  /// only its own connection, and the daemon's exit no longer than this.
  /// 0 disables the limit.
  u64 conn_idle_timeout_ms = 60000;
  /// Non-empty: persist completed kRunJobs results to
  /// `<journal_dir>/daemon.journal` and recover them on startup, so a
  /// crashed daemon serves re-submitted jobs from disk instead of
  /// recomputing (docs/PROTOCOL.md, "Job ids and the journal").
  std::string journal_dir;
};

/// Run the daemon until shutdown. Returns a process exit code.
int run_daemon(const DaemonOptions& opts);

}  // namespace hcsim::svc
