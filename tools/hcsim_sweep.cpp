// hcsim_sweep — run a named experiment sweep on the thread-pool runner and
// emit the aggregated report, optionally mirrored to CSV/JSON for plotting.
//
// Usage:
//   hcsim_sweep list                (or: hcsim_sweep --list)
//   hcsim_sweep <sweep> [--threads N] [--len N] [--seeds s1,s2,...]
//                       [--csv FILE] [--json FILE] [--quiet]
//                       [--sampled] [--sample-warmup N] [--sample-measure N]
//                       [--sample-period N] [--sample-windows N]
//                       [--compare-full] [--max-rel-err X]
//                       [--connect SOCK] [--journal-dir DIR] [--retry N]
//                       [--retry-backoff-ms N] [--timeout-ms N] [--no-fallback]
//   hcsim_sweep --connect SOCK --shutdown
//
// sweep: fig06 fig12 cumulative edp helper_design rv smoke
// --threads 0 uses every hardware thread; --threads 1 (default) runs
// serially. Results are identical across thread counts.
//
// --connect SOCK runs the sweep fault-tolerantly over a hcsimd socket: the
// grid is expanded into content-addressed jobs client-side, submitted in
// kRunJobs batches, and any transport failure triggers reconnect with capped
// exponential backoff (--retry attempts, --retry-backoff-ms base) followed
// by idempotent re-submission of only the still-missing jobs. When the
// daemon stays unreachable the remainder is computed in-process (--threads
// applies there; --no-fallback fails instead). --journal-dir DIR keeps a
// client-side journal (DIR/client.journal) so a killed hcsim_sweep rerun
// resumes from disk; it also enables journaled in-process runs without
// --connect. Because every job is a pure function of its request, the CSV
// is byte-identical to an uninterrupted in-process run no matter how the
// transport behaved. --compare-full needs per-point data and is not
// available in fault-tolerant mode, nor is a zero --sample-warmup (a job
// request's zero warm-up means the default). --timeout-ms bounds each
// protocol frame (default: block forever).
//
// Exit codes: 0 success; 1 runtime failure (I/O, --max-rel-err exceeded);
// 2 usage error or unknown sweep; 3 connect/transport failure after retries
// (including --shutdown over a dead socket, and sweeps with --no-fallback).
//
// Sampling: --sampled turns on warm-up/measure windowed simulation for every
// point (defaults warmup=20000 measure=80000, period auto ~20 windows); any
// --sample-* flag implies --sampled and overrides the HCSIM_SAMPLE_*
// environment. --compare-full additionally runs the full (unsampled) sweep
// and prints the sampled-vs-full error table; with --max-rel-err X the exit
// status is 1 when any metric's worst relative error exceeds X.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "exp/report.hpp"
#include "exp/runner.hpp"
#include "exp/sweep.hpp"
#include "sample/spec.hpp"
#include "svc/client.hpp"
#include "svc/remote_sweep.hpp"

using namespace hcsim;
using namespace hcsim::exp;

namespace {

/// Sanity cap on worker threads (also guards the u64 -> unsigned narrowing).
constexpr unsigned kMaxThreads = 4096;

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <sweep|list|--list> [--threads N] [--len N] [--seeds s1,s2,...]\n"
               "          [--csv FILE] [--json FILE] [--quiet]\n"
               "          [--sampled] [--sample-warmup N] [--sample-measure N]\n"
               "          [--sample-period N] [--sample-windows N]\n"
               "          [--compare-full] [--max-rel-err X]\n"
               "          [--connect SOCK] [--journal-dir DIR] [--retry N]\n"
               "          [--retry-backoff-ms N] [--timeout-ms N] [--no-fallback]\n"
               "          [--shutdown]\n"
               "exit codes: 0 ok, 1 runtime failure, 2 usage/unknown sweep,\n"
               "            3 connect/transport failure after retries\n"
               "sweeps:",
               argv0);
  for (const std::string& n : sweep_names()) std::fprintf(stderr, " %s", n.c_str());
  std::fprintf(stderr, "\n");
  return 2;
}

int print_sweep_list() {
  for (const std::string& n : sweep_names()) {
    const auto spec = find_sweep(n);
    if (!spec) continue;  // unreachable: names come from the same table
    std::printf("%-14s %3llu points (%zu apps x %zu configs)\n", n.c_str(),
                static_cast<unsigned long long>(spec->num_points()),
                spec->workloads.size(), spec->variants.size());
  }
  return 0;
}

bool write_file(const std::string& path, const std::string& content) {
  std::ofstream f(path, std::ios::binary);
  if (!f) return false;
  f << content;
  return f.good();
}

/// Parse one decimal integer, rejecting trailing garbage ("100k") and,
/// unless `allow_zero`, the value 0.
u64 parse_u64(const char* flag, const char* s, bool allow_zero) {
  char* end = nullptr;
  const u64 v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0' || (!allow_zero && v == 0)) {
    std::fprintf(stderr, "%s: bad value '%s' (%s integer required)\n", flag, s,
                 allow_zero ? "non-negative" : "positive");
    std::exit(2);
  }
  return v;
}

/// Parse "s1,s2,..." as positive integers. Exits with a usage error on
/// malformed input or a 0 value — seed 0 is the runner's "keep the
/// profile's own seed" placeholder, never a valid explicit seed.
std::vector<u64> parse_u64_list(const char* flag, const char* s) {
  std::vector<u64> out;
  for (const char* p = s; *p;) {
    char* end = nullptr;
    const u64 v = std::strtoull(p, &end, 10);
    if (end == p || (*end != '\0' && *end != ',') || v == 0) {
      std::fprintf(stderr, "%s: bad value in list '%s' (positive integers only)\n",
                   flag, s);
      std::exit(2);
    }
    out.push_back(v);
    p = (*end == ',') ? end + 1 : end;
  }
  if (out.empty()) {
    std::fprintf(stderr, "%s: empty list\n", flag);
    std::exit(2);
  }
  return out;
}

/// Parse one positive decimal double ("0.05"), rejecting trailing garbage.
double parse_double(const char* flag, const char* s) {
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  if (end == s || *end != '\0' || !(v > 0.0)) {
    std::fprintf(stderr, "%s: bad value '%s' (positive number required)\n", flag, s);
    std::exit(2);
  }
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(argv[0]);
  std::string sweep_name;
  int flag_start = 2;
  if (argv[1][0] == '-') {
    flag_start = 1;  // flag-only invocation (--list, --connect ... --shutdown)
  } else {
    sweep_name = argv[1];
  }
  if (sweep_name == "list") return print_sweep_list();

  std::optional<SweepSpec> spec;
  if (!sweep_name.empty()) {
    spec = find_sweep(sweep_name);
    if (!spec) {
      std::fprintf(stderr, "unknown sweep '%s'\n", sweep_name.c_str());
      return usage(argv[0]);
    }
  }

  RunOptions opts;
  std::string csv_path, json_path, connect_path, journal_dir;
  u64 retries = 5;
  u64 retry_backoff_ms = 100;
  u64 timeout_ms = 0;  // 0 = no per-frame deadline
  bool no_fallback = false;
  bool shutdown_daemon = false;
  bool quiet = false;
  // Sampling starts from the HCSIM_SAMPLE_* environment so CLI flags only
  // override what they name; any --sample-* flag implies --sampled.
  sample::SampleSpec sample_spec = sample::spec_from_env();
  bool sampled = sample_spec.enabled();
  bool compare_full = false;
  double max_rel_err = 0.0;  // 0 = no bound enforced
  bool have_len = false, have_seeds = false;
  u64 len_override = 0;
  std::vector<u64> seed_override;
  for (int i = flag_start; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--threads") {
      const u64 threads = parse_u64("--threads", next(), /*allow_zero=*/true);
      if (threads > kMaxThreads) {
        std::fprintf(stderr, "--threads: %llu exceeds the limit of %u\n",
                     static_cast<unsigned long long>(threads), kMaxThreads);
        return 2;
      }
      opts.threads = static_cast<unsigned>(threads);
    } else if (arg == "--len") {
      len_override = parse_u64("--len", next(), /*allow_zero=*/false);
      have_len = true;
    } else if (arg == "--seeds") {
      seed_override = parse_u64_list("--seeds", next());
      have_seeds = true;
    } else if (arg == "--csv") {
      csv_path = next();
    } else if (arg == "--json") {
      json_path = next();
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--sampled") {
      sampled = true;
    } else if (arg == "--sample-warmup") {
      sample_spec.warmup = parse_u64("--sample-warmup", next(), /*allow_zero=*/true);
      sampled = true;
    } else if (arg == "--sample-measure") {
      sample_spec.measure = parse_u64("--sample-measure", next(), /*allow_zero=*/false);
      sampled = true;
    } else if (arg == "--sample-period") {
      sample_spec.period = parse_u64("--sample-period", next(), /*allow_zero=*/true);
      sampled = true;
    } else if (arg == "--sample-windows") {
      sample_spec.max_windows =
          parse_u64("--sample-windows", next(), /*allow_zero=*/true);
      sampled = true;
    } else if (arg == "--compare-full") {
      compare_full = true;
    } else if (arg == "--max-rel-err") {
      max_rel_err = parse_double("--max-rel-err", next());
    } else if (arg == "--connect") {
      connect_path = next();
    } else if (arg == "--journal-dir") {
      journal_dir = next();
    } else if (arg == "--retry") {
      retries = parse_u64("--retry", next(), /*allow_zero=*/false);
      if (retries > 1000) {
        std::fprintf(stderr, "--retry: %llu exceeds the limit of 1000\n",
                     static_cast<unsigned long long>(retries));
        return 2;
      }
    } else if (arg == "--retry-backoff-ms") {
      retry_backoff_ms = parse_u64("--retry-backoff-ms", next(), /*allow_zero=*/true);
    } else if (arg == "--timeout-ms") {
      timeout_ms = parse_u64("--timeout-ms", next(), /*allow_zero=*/false);
    } else if (arg == "--no-fallback") {
      no_fallback = true;
    } else if (arg == "--shutdown") {
      shutdown_daemon = true;
    } else if (arg == "--list") {
      return print_sweep_list();
    } else {
      std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
      return usage(argv[0]);
    }
  }

  if (shutdown_daemon) {
    if (connect_path.empty()) {
      std::fprintf(stderr, "--shutdown needs --connect SOCK\n");
      return 2;
    }
    svc::Client client = svc::Client::connect(connect_path);
    if (!client.ok()) {
      std::fprintf(stderr, "%s\n", client.error().c_str());
      return 3;
    }
    if (timeout_ms != 0) client.set_timeout_ms(static_cast<int>(timeout_ms));
    std::string error;
    if (!client.shutdown(error)) {
      std::fprintf(stderr, "shutdown failed: %s\n", error.c_str());
      return 3;
    }
    if (sweep_name.empty()) return 0;
    std::fprintf(stderr, "daemon shut down; cannot also run '%s'\n",
                 sweep_name.c_str());
    return 2;
  }

  // Fault-tolerant mode: --connect and/or --journal-dir. The grid expands
  // client-side into content-addressed jobs; svc::run_sweep_ft drains them
  // through the client journal, the daemon (reconnecting with backoff), and
  // the in-process fallback, then assembles the same SweepResult the
  // in-process path would have produced.
  if (!connect_path.empty() || !journal_dir.empty()) {
    if (compare_full || max_rel_err > 0.0) {
      std::fprintf(stderr,
                   "--compare-full/--max-rel-err need a full in-process run "
                   "and are not available with --connect/--journal-dir\n");
      return 2;
    }
    // A job request's zero warm-up means "the default" (and journaled job
    // ids hash the field as sent), so the in-process "no warm-up" cannot be
    // expressed here; refuse it rather than run a different schedule.
    if (sampled && sample_spec.warmup == 0) {
      std::fprintf(stderr,
                   "--sample-warmup 0 (or HCSIM_SAMPLE_WARMUP=0) is not available with "
                   "--connect/--journal-dir: a zero warm-up there means the default "
                   "(%llu)\n",
                   static_cast<unsigned long long>(sample::kDefaultWarmup));
      return 2;
    }
    if (sweep_name.empty()) return usage(argv[0]);
    if (have_len) spec->trace_lens = {len_override};
    if (have_seeds) spec->seeds = seed_override;

    svc::FtSweepOptions ft;
    ft.socket_path = connect_path;
    ft.journal_dir = journal_dir;
    ft.threads = opts.threads;
    ft.retries = static_cast<unsigned>(retries);
    ft.backoff_base_ms = retry_backoff_ms;
    ft.timeout_ms = timeout_ms != 0 ? static_cast<int>(timeout_ms) : -1;
    ft.allow_fallback = !no_fallback;
    ft.sampled = sampled;
    if (sampled) {
      ft.warmup = sample_spec.warmup;
      ft.measure = sample_spec.measure;
      ft.period = sample_spec.period;
      ft.max_windows = sample_spec.max_windows;
    }
    ft.log = [](const std::string& msg) {
      std::fprintf(stderr, "%s\n", msg.c_str());
    };

    SweepResult result;
    svc::FtSweepStats stats;
    std::string error;
    const svc::FtStatus status = run_sweep_ft(*spec, ft, result, stats, error);
    std::fprintf(stderr,
                 "fault tolerance: %llu job(s): %llu from client journal, "
                 "%llu from daemon journal, %llu computed remotely, "
                 "%llu computed locally; %llu reconnect(s), "
                 "%llu connect attempt(s)\n",
                 static_cast<unsigned long long>(stats.jobs),
                 static_cast<unsigned long long>(stats.client_journal_hits),
                 static_cast<unsigned long long>(stats.daemon_journal_hits),
                 static_cast<unsigned long long>(stats.remote_jobs),
                 static_cast<unsigned long long>(stats.local_jobs),
                 static_cast<unsigned long long>(stats.reconnects),
                 static_cast<unsigned long long>(stats.connect_attempts));
    if (status != svc::FtStatus::kOk) {
      std::fprintf(stderr, "sweep '%s' failed: %s\n", sweep_name.c_str(),
                   error.c_str());
      return status == svc::FtStatus::kTransportFailed ? 3 : 2;
    }
    const std::string via =
        connect_path.empty() ? "" : " (via " + connect_path + ")";
    std::printf("sweep %s: %zu points, %u thread%s%s\n", result.sweep.c_str(),
                result.points.size(), result.threads_used,
                result.threads_used == 1 ? "" : "s", via.c_str());
    std::printf("%s\n", render_summary(result).c_str());
    if (!csv_path.empty() && !write_file(csv_path, to_csv(result))) {
      std::fprintf(stderr, "failed to write %s\n", csv_path.c_str());
      return 1;
    }
    if (!json_path.empty() && !write_file(json_path, to_json(result))) {
      std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
      return 1;
    }
    return 0;
  }
  if (sweep_name.empty()) return usage(argv[0]);
  if (have_len) spec->trace_lens = {len_override};
  if (have_seeds) spec->seeds = seed_override;

  if (!quiet) {
    opts.on_point = [](const PointResult& pr, u64 done, u64 total) {
      std::fprintf(stderr, "[%3llu/%3llu] %-8s %-24s speedup %.3f\n",
                   static_cast<unsigned long long>(done),
                   static_cast<unsigned long long>(total),
                   pr.point.profile.name.c_str(), pr.point.variant.name.c_str(),
                   pr.speedup());
    };
  }

  if (max_rel_err > 0.0) compare_full = true;  // the bound needs the reference run
  if (compare_full) sampled = true;
  if (sampled) {
    if (sample_spec.measure == 0) sample_spec.measure = sample::kDefaultMeasure;
    sample_spec.validate();
  }

  // The full reference sweep runs first, with sampling forced off; the main
  // (possibly sampled) sweep then installs the active spec for its workers.
  SweepResult full_result;
  if (compare_full) {
    sample::set_active_sample_spec(sample::SampleSpec{});
    full_result = run_sweep(*spec, opts);
  }
  sample::set_active_sample_spec(sampled ? sample_spec : sample::SampleSpec{});
  const SweepResult result = run_sweep(*spec, opts);

  std::printf("sweep %s: %zu points, %u thread%s, %.2fs\n", result.sweep.c_str(),
              result.points.size(), result.threads_used,
              result.threads_used == 1 ? "" : "s", result.wall_seconds);
  if (sampled) std::printf("sampling: %s\n", sample_spec.describe().c_str());
  std::printf("%s\n", render_summary(result).c_str());

  if (compare_full) {
    std::printf("full sweep: %.2fs, sampled sweep: %.2fs (%.1fx)\n",
                full_result.wall_seconds, result.wall_seconds,
                result.wall_seconds > 0.0
                    ? full_result.wall_seconds / result.wall_seconds
                    : 0.0);
    std::printf("%s\n", render_sampling_error(full_result, result).c_str());
    const double worst = max_sampling_rel_error(full_result, result);
    if (max_rel_err > 0.0 && worst > max_rel_err) {
      std::fprintf(stderr,
                   "max relative error %.4f exceeds the --max-rel-err bound %.4f\n",
                   worst, max_rel_err);
      return 1;
    }
  }

  if (!csv_path.empty() && !write_file(csv_path, to_csv(result))) {
    std::fprintf(stderr, "failed to write %s\n", csv_path.c_str());
    return 1;
  }
  if (!json_path.empty() && !write_file(json_path, to_json(result))) {
    std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
    return 1;
  }
  return 0;
}
