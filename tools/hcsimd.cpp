// hcsimd — persistent simulation service.
//
// Keeps the process-wide trace cache warm across job batches and runs every
// job on one shared thread pool. Clients speak the length-prefixed framed
// protocol of docs/PROTOCOL.md over a Unix-domain socket: kRunJobs batches
// of self-contained jobs, kPing and kShutdown. `hcsim_sweep --connect
// <sock>` is the reference client.
//
// Usage:
//   hcsimd --socket PATH [--threads N] [--idle-timeout-ms N]
//          [--conn-idle-timeout-ms N] [--journal-dir DIR]
//
// --threads 0 (default) sizes the job pool to the hardware. Up to 16
// connections are served at once, and their batches take turns on the
// pool. With --idle-timeout-ms the daemon exits by itself once no
// connection has been open for that long — shutdown unlinks the socket.
// --conn-idle-timeout-ms (default 60000, 0 = off) drops a connection that
// sends nothing for that long, freeing its slot, and bounds each result
// write, so a client that stops reading cannot hold the daemon's exit
// longer than that. --journal-dir persists every completed kRunJobs result
// to DIR/daemon.journal and recovers it on restart, so a crashed daemon
// serves re-submitted jobs from disk instead of recomputing them
// (docs/PROTOCOL.md, "Job ids and the journal").
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "svc/daemon.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --socket PATH [--threads N] [--idle-timeout-ms N]\n"
               "       [--conn-idle-timeout-ms N] [--journal-dir DIR]\n",
               argv0);
  return 2;
}

hcsim::u64 parse_u64(const char* flag, const char* s) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0') {
    std::fprintf(stderr, "%s: bad value '%s'\n", flag, s);
    std::exit(2);
  }
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  hcsim::svc::DaemonOptions opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--socket") {
      opts.socket_path = next();
    } else if (arg == "--threads") {
      const hcsim::u64 n = parse_u64("--threads", next());
      if (n > 4096) {
        std::fprintf(stderr, "--threads: %llu exceeds the limit of 4096\n",
                     static_cast<unsigned long long>(n));
        return 2;
      }
      opts.threads = static_cast<unsigned>(n);
    } else if (arg == "--idle-timeout-ms") {
      opts.idle_timeout_ms = parse_u64("--idle-timeout-ms", next());
    } else if (arg == "--conn-idle-timeout-ms") {
      opts.conn_idle_timeout_ms = parse_u64("--conn-idle-timeout-ms", next());
    } else if (arg == "--journal-dir") {
      opts.journal_dir = next();
    } else {
      std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
      return usage(argv[0]);
    }
  }
  if (opts.socket_path.empty()) return usage(argv[0]);
  return hcsim::svc::run_daemon(opts);
}
