// hcsim_perf — shared declarations of the benchmark program.
//
// hcsim_perf runs one workload per process (run.py spawns it once per
// repetition) so every repetition starts with a cold process-wide trace
// cache and its own peak-RSS high-water mark. It talks to the library only
// through public headers. Output is one JSON object on the last stdout line;
// run.py aggregates repetitions and checks the CSV row digests.
#pragma once

#include <chrono>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "core/sim_result.hpp"
#include "exp/runner.hpp"
#include "exp/sweep.hpp"
#include "sample/spec.hpp"
#include "svc/protocol.hpp"

namespace perf {

using hcsim::i64;
using hcsim::u64;
using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Sink for the replay loops' results, so the compiler keeps the work.
inline volatile u64 g_sink = 0;

/// Command-line parameters of one hcsim_perf invocation.
struct Options {
  std::string workload;  // ladder_cached | fig12_sampled | daemon_mixed
  u64 seed = 0;          // input seed; SweepSpec::seeds = {seed + 1}
  u64 len = 0;           // trace µops per job
  hcsim::sample::SampleSpec sample;  // enabled for fig12_sampled only
  unsigned threads = 4;  // in-process pool size / hcsimd pool size
  std::string hcsimd;    // daemon_mixed: the built hcsimd binary
  std::string run_dir;   // private directory for socket, journal and spans
  // Self-check fault injection.
  bool corrupt_row = false;   // flip one byte of one CSV row before digesting
  u64 kill_daemon_after = 0;  // SIGKILL hcsimd after this many cold results
};

/// Baseline cell of a point: one per (workload, seed); the length is fixed.
inline std::pair<hcsim::u32, hcsim::u32> cell_of(const hcsim::exp::ExperimentPoint& p) {
  return {p.workload_idx, p.seed_idx};
}

/// The sweep grids a workload runs, in output order: ladder_cached and
/// daemon_mixed run "cumulative" (seed-mapped); fig12_sampled runs "fig12";
/// daemon_mixed adds "rv" (the RV kernels ignore the seed).
std::vector<hcsim::exp::SweepSpec> workload_grids(const Options& o);

/// FNV-1a 64 hex digest of every line of a CSV (header included).
std::vector<std::string> row_digests(const std::string& csv);

/// Peak resident set (VmHWM) of a process in MB; pid 0 = this process.
double peak_rss_mb(int pid = 0);

double median(std::vector<double> v);
/// Nearest-rank percentile, p in [0, 100].
double percentile(std::vector<double> v, double p);

/// Median wall time of 5 runs of `body`, in seconds.
template <typename F>
double median_seconds(F&& body) {
  std::vector<double> v;
  for (int r = 0; r < 5; ++r) {
    const Clock::time_point t0 = Clock::now();
    body();
    v.push_back(seconds_since(t0));
  }
  return median(std::move(v));
}

// --- spans ------------------------------------------------------------------

/// One timed call into a layer. `parent` indexes the span that caused it
/// (-1 for a root); spans of one job share `job`.
struct Span {
  std::string name;
  i64 start_ns = 0;
  i64 end_ns = 0;
  int parent = -1;
  u64 job = 0;
};

/// In-memory span log shared by the worker threads of a traced run; written
/// out once, when the run ends.
class SpanLog {
 public:
  SpanLog() : t0_(Clock::now()) {}

  int open(const std::string& name, int parent, u64 job);
  void close(int id);

  /// Sum of durations and of self times (duration minus the union of the
  /// direct children's intervals, which never overlap for one parent) per
  /// span name, in seconds.
  struct Totals {
    double total_s = 0.0;
    double self_s = 0.0;
    u64 count = 0;
  };
  std::map<std::string, Totals> totals() const;
  /// Durations in seconds of every span called `name`.
  std::vector<double> durations(const std::string& name) const;

  /// JSON lines, one span each.
  bool write(const std::string& path) const;

 private:
  i64 now_ns() const;

  const Clock::time_point t0_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span; a null log records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const std::string& name, int parent, u64 job)
      : log_(log), id_(log ? log->open(name, parent, job) : -1) {}
  ~ScopedSpan() {
    if (log_) log_->close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return id_; }

 private:
  SpanLog* log_;
  int id_;
};

/// Ordered name -> value table of per-layer metrics.
using Layers = std::vector<std::pair<std::string, double>>;

// --- JSON output ------------------------------------------------------------

/// Minimal JSON object writer for the one-line result.
class JsonOut {
 public:
  void num(const std::string& key, double v);
  void str(const std::string& key, const std::string& v);
  void nums(const std::string& key, const std::vector<double>& v);
  void strs(const std::string& key, const std::vector<std::string>& v);
  void raw(const std::string& key, const std::string& json);
  std::string finish() const { return "{" + body_ + "}"; }

 private:
  void key(const std::string& k);
  std::string body_;
};
std::string json_object(const Layers& layers);
/// Per span name: total seconds, self seconds and count.
std::string spans_json(const SpanLog& log);

/// Row digests of a sweep CSV; --corrupt-row flips one byte of the first
/// data row first (the self-check's wrong-output fault).
std::vector<std::string> csv_rows(std::string csv, const Options& o);

/// Simulated (exact) rates over a grid's results: helper share, predictor
/// accuracies, cache hit ratios, IPC, copies and flushes per kµop. Event
/// rates come from the variant runs; branch and cache ratios from both.
void simulated_rates(const std::vector<const hcsim::SimResult*>& cells,
                     const std::vector<const hcsim::SimResult*>& variants, Layers& layers);

// --- daemon_mixed (daemon.cpp) ----------------------------------------------

/// Jobs of one grid, deduplicated by content-addressed id, with the
/// point -> job maps needed to assemble the SweepResult (the same expansion
/// the fault-tolerant client performs).
struct GridJobs {
  hcsim::exp::SweepSpec spec;
  std::vector<hcsim::exp::ExperimentPoint> points;
  std::vector<hcsim::svc::JobRequest> jobs;
  std::vector<u64> ids;            // job_id of jobs[i]
  std::vector<u64> point_baseline; // job id per point
  std::vector<u64> point_job;      // job id per point
};
GridJobs expand_jobs(const hcsim::exp::SweepSpec& spec);

/// Assemble the grid's SweepResult from job results (missing jobs leave a
/// default SimResult, so their CSV rows differ from the reference).
hcsim::exp::SweepResult assemble(const GridJobs& g,
                                 const std::map<u64, hcsim::SimResult>& results);

struct DaemonOutcome {
  std::vector<double> setup_s;  // spawn -> first ping answered, per start
  double sweep_s = 0.0;         // cold pass + restart + warm pass + CSVs
  double peak_rss_mb = 0.0;     // hcsimd VmHWM, max over both daemons
  std::vector<double> job_ms;   // cold pass, batch sent -> kJobResult
  u64 covered_uops = 0;         // µops of the unique cold-pass jobs
  u64 attempted = 0;            // jobs submitted, both passes
  u64 failed = 0;               // lost, refused, or not served from journal
  std::vector<std::vector<std::string>> rows;  // per grid
  Layers layers;                // traced run only
};
DaemonOutcome run_daemon_workload(const Options& o, SpanLog* spans);

// --- per-layer replay (layers.cpp) ------------------------------------------

/// Feed the workload's own gcc and mcf traces through each component class
/// alone and append the layer rows (ns per µop / call, hit ratios, the
/// pipeline replay and the glue remainder) to `out`.
void replay_layers(const Options& o, Layers& out);

}  // namespace perf
