// hcsim_perf — one repetition of one benchmark workload.
//
// Usage:
//   hcsim_perf <timed|traced|reference> --workload W --seed N --len N
//              [--sample-warmup N --sample-measure N --sample-period N]
//              [--threads N] [--hcsimd PATH] --run-dir DIR
//              [--corrupt-row] [--kill-daemon-after N]
//
// timed      the user's view: exp::run_sweep on a pool (or hcsimd for
//            daemon_mixed), tracing off.
// traced     the benchmark drives the grid itself from exp::expand, with a
//            span around every call it makes into a layer, then replays the
//            workload's gcc/mcf traces through each component alone. The
//            span log is written to DIR/spans.jsonl when the run ends.
// reference  the same grids run serially in-process: the CSV row digests
//            every other run is checked against.
//
// The last stdout line is one JSON object; run.py aggregates repetitions.
#include <algorithm>
#include <cinttypes>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>

#include "exp/report.hpp"
#include "perf.hpp"
#include "power/power_model.hpp"
#include "sample/record_stream.hpp"
#include "sample/windowed.hpp"
#include "sim/simulator.hpp"

using namespace hcsim;

namespace perf {

// --- shared helpers -----------------------------------------------------------

std::vector<exp::SweepSpec> workload_grids(const Options& o) {
  std::vector<exp::SweepSpec> grids;
  const auto add = [&](const char* name, bool seeded) {
    std::optional<exp::SweepSpec> spec = exp::find_sweep(name);
    if (!spec) {
      std::fprintf(stderr, "hcsim_perf: sweep '%s' is not registered\n", name);
      std::exit(2);
    }
    spec->trace_lens = {o.len};
    // Seed 0 is the runner's "profile default" placeholder, so input seed
    // s maps onto the explicit grid seed s + 1.
    if (seeded) spec->seeds = {o.seed + 1};
    grids.push_back(std::move(*spec));
  };
  if (o.workload == "ladder_cached") {
    add("cumulative", true);
  } else if (o.workload == "fig12_sampled") {
    add("fig12", true);
  } else if (o.workload == "daemon_mixed") {
    add("cumulative", true);
    add("rv", false);
  } else {
    std::fprintf(stderr, "hcsim_perf: unknown workload '%s'\n", o.workload.c_str());
    std::exit(2);
  }
  return grids;
}

std::vector<std::string> row_digests(const std::string& csv) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos < csv.size()) {
    std::size_t end = csv.find('\n', pos);
    if (end == std::string::npos) end = csv.size();
    u64 h = 0xcbf29ce484222325ULL;
    for (std::size_t i = pos; i < end; ++i) {
      h ^= static_cast<unsigned char>(csv[i]);
      h *= 0x100000001b3ULL;
    }
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, h);
    out.emplace_back(buf);
    pos = end + 1;
  }
  return out;
}

double peak_rss_mb(int pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream f(path);
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  return 0.0;
}

double median(std::vector<double> v) { return percentile(std::move(v), 50.0); }

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size());
  std::size_t idx = rank <= 1.0 ? 0 : static_cast<std::size_t>(rank + 0.999999) - 1;
  return v[std::min(idx, v.size() - 1)];
}

i64 SpanLog::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0_).count();
}

int SpanLog::open(const std::string& name, int parent, u64 job) {
  const i64 t = now_ns();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, t, t, parent, job});
  return static_cast<int>(spans_.size() - 1);
}

void SpanLog::close(int id) {
  const i64 t = now_ns();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].end_ns = t;
}

std::map<std::string, SpanLog::Totals> SpanLog::totals() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<i64> child_ns(spans_.size(), 0);
  for (const Span& s : spans_)
    if (s.parent >= 0) child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
  std::map<std::string, Totals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    Totals& t = out[s.name];
    const double dur = static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    t.total_s += dur;
    t.self_s += dur - static_cast<double>(child_ns[i]) * 1e-9;
    ++t.count;
  }
  return out;
}

std::vector<double> SpanLog::durations(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const Span& s : spans_)
    if (s.name == name) out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-9);
  return out;
}

bool SpanLog::write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream f(path, std::ios::binary);
  if (!f) return false;
  for (const Span& s : spans_) {
    f << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
      << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent << ",\"job\":" << s.job
      << "}\n";
  }
  return f.good();
}

void JsonOut::key(const std::string& k) {
  if (!body_.empty()) body_ += ",";
  body_ += "\"" + k + "\":";
}

void JsonOut::num(const std::string& k, double v) {
  key(k);
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  body_ += buf;
}

void JsonOut::str(const std::string& k, const std::string& v) {
  key(k);
  body_ += "\"" + v + "\"";
}

void JsonOut::nums(const std::string& k, const std::vector<double>& v) {
  key(k);
  body_ += "[";
  char buf[40];
  for (std::size_t i = 0; i < v.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s%.17g", i ? "," : "", v[i]);
    body_ += buf;
  }
  body_ += "]";
}

void JsonOut::strs(const std::string& k, const std::vector<std::string>& v) {
  key(k);
  body_ += "[";
  for (std::size_t i = 0; i < v.size(); ++i) body_ += (i ? ",\"" : "\"") + v[i] + "\"";
  body_ += "]";
}

void JsonOut::raw(const std::string& k, const std::string& json) {
  key(k);
  body_ += json;
}

std::string json_object(const Layers& layers) {
  JsonOut j;
  for (const auto& [name, value] : layers) j.num(name, value);
  return j.finish();
}

std::string spans_json(const SpanLog& log) {
  JsonOut spans;
  for (const auto& [name, t] : log.totals()) {
    JsonOut row;
    row.num("total_s", t.total_s);
    row.num("self_s", t.self_s);
    row.num("count", static_cast<double>(t.count));
    spans.raw(name, row.finish());
  }
  return spans.finish();
}

/// Write a traced run's span log to RUN_DIR/spans.jsonl; run.py keeps the
/// last traced repetition's log.
void write_spans(const SpanLog& log, const Options& o) {
  const std::string path = o.run_dir + "/spans.jsonl";
  if (!log.write(path)) {
    std::fprintf(stderr, "hcsim_perf: cannot write %s\n", path.c_str());
    std::exit(1);
  }
}

std::vector<std::string> csv_rows(std::string csv, const Options& o) {
  if (o.corrupt_row) {
    const std::size_t row = csv.find('\n');  // first data row starts after it
    if (row != std::string::npos && row + 1 < csv.size()) csv[row + 1] ^= 0x01;
  }
  return row_digests(csv);
}

void simulated_rates(const std::vector<const SimResult*>& cells,
                     const std::vector<const SimResult*>& variants, Layers& layers) {
  u64 uops = 0, to_helper = 0, copies = 0, flushes = 0, wp_ok = 0, wp_all = 0;
  u64 branches = 0, mispredicts = 0;
  double wide_cycles = 0.0, dl0_hits = 0.0, dl0_acc = 0.0, ul1_hits = 0.0, ul1_acc = 0.0;
  const auto add_mem = [&](const SimResult& r) {
    const double d = static_cast<double>(r.counters[Counter::kDl0Accesses]);
    const double u = static_cast<double>(r.counters[Counter::kUl1Accesses]);
    dl0_hits += r.dl0_hit_rate * d;
    dl0_acc += d;
    ul1_hits += r.ul1_hit_rate * u;
    ul1_acc += u;
    branches += r.branches;
    mispredicts += r.branch_mispredicts;
  };
  for (const SimResult* r : cells) add_mem(*r);
  for (const SimResult* r : variants) {
    uops += r->uops;
    to_helper += r->to_helper;
    copies += r->copies;
    flushes += r->counters[Counter::kFlushRefills];
    wp_ok += r->wp_correct;
    wp_all += r->wp_correct + r->wp_nonfatal + r->wp_fatal;
    wide_cycles += r->wide_cycles;
    add_mem(*r);
  }
  const auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  const double du = static_cast<double>(uops);
  layers.emplace_back("steer.helper_share", ratio(static_cast<double>(to_helper), du));
  layers.emplace_back("predict.width_accuracy",
                      ratio(static_cast<double>(wp_ok), static_cast<double>(wp_all)));
  layers.emplace_back("predict.branch_accuracy",
                      1.0 - ratio(static_cast<double>(mispredicts),
                                  static_cast<double>(branches)));
  layers.emplace_back("mem.dl0_hit_ratio", ratio(dl0_hits, dl0_acc));
  layers.emplace_back("mem.ul1_hit_ratio", ratio(ul1_hits, ul1_acc));
  layers.emplace_back("core.ipc", ratio(du, wide_cycles));
  layers.emplace_back("core.copies_per_kuop", ratio(1e3 * static_cast<double>(copies), du));
  layers.emplace_back("core.flushes_per_kuop", ratio(1e3 * static_cast<double>(flushes), du));
}

namespace {

std::string rows_json(const std::vector<exp::SweepSpec>& grids,
                      const std::vector<std::vector<std::string>>& rows) {
  JsonOut j;
  for (std::size_t i = 0; i < grids.size(); ++i) j.strs(grids[i].name, rows[i]);
  return j.finish();
}

/// Trace µops a sweep covered: every cell's baseline plus every point, as
/// simulated (full runs) or as spanned by the sampling schedule.
u64 covered_uops(const exp::SweepResult& r, const Options& o) {
  std::map<std::pair<u32, u32>, u64> cell_uops;
  u64 total = 0;
  for (const exp::PointResult& p : r.points) {
    const u64 base = o.sample.enabled() ? p.point.n_records : p.baseline.uops;
    cell_uops[cell_of(p.point)] = base;
    total += o.sample.enabled() ? p.point.n_records : p.sim.uops;
  }
  for (const auto& [cell, n] : cell_uops) total += n;
  return total;
}

u64 unique_jobs(const exp::SweepSpec& spec) {
  const std::vector<exp::ExperimentPoint> pts = exp::expand(spec);
  std::map<std::pair<u32, u32>, int> cells;
  for (const exp::ExperimentPoint& p : pts) cells[cell_of(p)] = 1;
  return pts.size() + cells.size();
}

// --- timed (tracing off) --------------------------------------------------------

/// Setups measured per repetition; run.py reports the median of all of them.
constexpr int kSetupSamples = 5;

std::string run_timed_inprocess(const Options& o) {
  const exp::SweepSpec spec = workload_grids(o).front();
  sample::set_active_sample_spec(o.sample);

  // Set-up: grid expansion plus pool start, repeated; the last pool runs.
  std::vector<double> setup_s;
  std::optional<exp::ThreadPool> pool;
  for (int k = 0; k < kSetupSamples; ++k) {
    pool.reset();
    const Clock::time_point t0 = Clock::now();
    const std::vector<exp::ExperimentPoint> pts = exp::expand(spec);
    pool.emplace(o.threads);
    setup_s.push_back(seconds_since(t0));
    if (pts.empty()) std::abort();
  }

  // Job latency as daemon_mixed measures it: every point is submitted when
  // the sweep starts, so a point's latency runs from there to its result,
  // queueing included. It follows sweep_s.
  std::vector<double> job_ms;
  exp::RunOptions opts;
  opts.pool = &*pool;
  const Clock::time_point t0 = Clock::now();
  opts.on_point = [&](const exp::PointResult&, u64, u64) {
    job_ms.push_back(seconds_since(t0) * 1e3);
  };
  const exp::SweepResult result = exp::run_sweep(spec, opts);
  const std::string csv = exp::to_csv(result);
  const std::string summary = exp::render_summary(result);
  const double sweep_s = seconds_since(t0);
  if (csv.empty() || summary.empty()) std::abort();

  JsonOut j;
  j.str("mode", "timed");
  j.str("workload", o.workload);
  j.num("sweep_s", sweep_s);
  j.nums("setup_s", setup_s);
  j.num("covered_uops", static_cast<double>(covered_uops(result, o)));
  j.num("peak_rss_mb", peak_rss_mb());
  j.nums("job_ms", job_ms);
  j.num("attempted", static_cast<double>(unique_jobs(spec)));
  j.num("failed", 0);
  j.raw("csv", rows_json({spec}, {csv_rows(csv, o)}));
  return j.finish();
}

std::string run_timed_daemon(const Options& o) {
  const DaemonOutcome d = run_daemon_workload(o, nullptr);
  JsonOut j;
  j.str("mode", "timed");
  j.str("workload", o.workload);
  j.num("sweep_s", d.sweep_s);
  j.nums("setup_s", d.setup_s);
  j.num("covered_uops", static_cast<double>(d.covered_uops));
  j.num("peak_rss_mb", d.peak_rss_mb);
  j.nums("job_ms", d.job_ms);
  j.num("attempted", static_cast<double>(d.attempted));
  j.num("failed", static_cast<double>(d.failed));
  j.raw("csv", rows_json(workload_grids(o), d.rows));
  return j.finish();
}

// --- reference (serial, in-process) ---------------------------------------------

std::string run_reference(const Options& o) {
  const std::vector<exp::SweepSpec> grids = workload_grids(o);
  sample::set_active_sample_spec(o.sample);
  std::vector<std::vector<std::string>> rows;
  exp::RunOptions serial;
  serial.threads = 1;
  for (const exp::SweepSpec& g : grids)
    rows.push_back(row_digests(exp::to_csv(exp::run_sweep(g, serial))));
  JsonOut j;
  j.str("mode", "reference");
  j.str("workload", o.workload);
  j.raw("csv", rows_json(grids, rows));
  return j.finish();
}

// --- traced in-process grid -------------------------------------------------------

/// Per-stream generation and window accounting of the sampled path.
struct StreamStats {
  explicit StreamStats(std::size_t windows) : window_s(windows, 0.0) {}
  u64 generated = 0;  // records the generator produced, delivered or skipped
  double gen_s = 0.0;
  std::vector<double> window_s;  // sink time per planned window
};

/// Timing RecordStream decorator. Pulls the inner stream in chunks into a
/// buffer ("wload.generate" spans: generation plus the seek discard), then
/// replays the buffer into the windowed simulator's sink, split at window
/// boundaries ("sample.window" spans: pipeline set-up, feed and close).
class TimedStream final : public sample::RecordStream {
 public:
  TimedStream(std::unique_ptr<sample::RecordStream> inner,
              const std::vector<sample::WindowRange>& plan, SpanLog& log, int parent,
              u64 job, StreamStats& stats)
      : inner_(std::move(inner)), plan_(plan), log_(log), parent_(parent), job_(job),
        stats_(stats) {}

  const Program& program() const override { return inner_->program(); }

  void feed_range(u64 begin, u64 end, const sample::RecordSink& sink) override {
    constexpr u64 kChunk = 1 << 16;
    for (u64 pos = begin; pos < end;) {
      const u64 stop = std::min(end, pos + kChunk);
      buf_.clear();
      {
        ScopedSpan s(&log_, "wload.generate", parent_, job_);
        const Clock::time_point t0 = Clock::now();
        inner_->feed_range(pos, stop, [this](const TraceRecord& r) { buf_.push_back(r); });
        stats_.gen_s += seconds_since(t0);
      }
      const u64 reached = pos + buf_.size();
      if (reached > furthest_) {
        stats_.generated += reached - furthest_;
        furthest_ = reached;
      }
      replay(pos, sink);
      if (reached < stop) return;  // the stream ended
      pos = stop;
    }
  }

 private:
  void replay(u64 pos, const sample::RecordSink& sink) {
    const u64 n = buf_.size();
    for (u64 i = 0; i < n;) {
      const u64 r = pos + i;
      while (wi_ < plan_.size() && plan_[wi_].end() <= r) ++wi_;
      const bool in_window = wi_ < plan_.size() && r >= plan_[wi_].begin;
      u64 seg_end = pos + n;
      if (wi_ < plan_.size())
        seg_end = std::min(seg_end, in_window ? plan_[wi_].end() : plan_[wi_].begin);
      std::optional<ScopedSpan> span;
      if (in_window) span.emplace(&log_, "sample.window", parent_, job_);
      const Clock::time_point t0 = Clock::now();
      for (u64 k = i; k < seg_end - pos; ++k) sink(buf_[k]);
      if (in_window) stats_.window_s[wi_] += seconds_since(t0);
      i = seg_end - pos;
    }
  }

  std::unique_ptr<sample::RecordStream> inner_;
  const std::vector<sample::WindowRange>& plan_;
  SpanLog& log_;
  int parent_;
  u64 job_;
  StreamStats& stats_;
  std::vector<TraceRecord> buf_;
  u64 furthest_ = 0;
  std::size_t wi_ = 0;
};

/// Counters the traced grid accumulates across jobs (guarded by `mu`).
struct GridAccum {
  std::mutex mu;
  u64 generated = 0;
  double gen_s = 0.0;
  u64 simulated = 0;
  std::vector<double> window_s;
};

/// One job of the traced grid: the call sequence simulate_workload makes,
/// with a span around each layer call.
SimResult traced_job(const MachineConfig& cfg, const WorkloadProfile& profile,
                     const Options& o, SpanLog& log, int parent, u64 job,
                     GridAccum& acc) {
  if (o.sample.enabled()) {
    const std::vector<sample::WindowRange> plan = sample::plan_windows(o.sample, o.len);
    StreamStats st(plan.size());
    const sample::StreamFactory inner = sample::workload_stream_factory(profile, o.len);
    const sample::WindowedSimulator sim(cfg, o.sample);
    const sample::SampledResult r = sim.run(
        [&] { return std::make_unique<TimedStream>(inner(), plan, log, parent, job, st); },
        o.len, 1);
    std::lock_guard<std::mutex> lock(acc.mu);
    acc.generated += st.generated;
    acc.gen_s += st.gen_s;
    acc.simulated += r.simulated_uops;
    for (double w : st.window_s)
      if (w > 0.0) acc.window_s.push_back(w);
    return r.total;
  }
  const Trace* trace = nullptr;
  {
    ScopedSpan s(&log, "wload.generate", parent, job);
    const Clock::time_point t0 = Clock::now();
    trace = &cached_trace(profile, o.len);
    std::lock_guard<std::mutex> lock(acc.mu);
    acc.gen_s += seconds_since(t0);
  }
  std::optional<Pipeline> p;
  {
    ScopedSpan s(&log, "core.setup", parent, job);
    p.emplace(cfg, trace->program);
  }
  {
    ScopedSpan s(&log, "core.feed", parent, job);
    p->feed(std::span<const TraceRecord>(trace->records));
  }
  ScopedSpan s(&log, "core.finish", parent, job);
  return p->finish();
}

PowerReport traced_power(const SimResult& r, const MachineConfig& cfg, SpanLog& log,
                         int parent, u64 job) {
  ScopedSpan s(&log, "power.analyze", parent, job);
  return analyze_power(r, cfg);
}

/// Run `jobs` on the pool and wait for exactly those (the pool is shared).
void run_all(exp::ThreadPool& pool, std::vector<std::function<void()>>& jobs) {
  std::mutex mu;
  std::condition_variable cv;
  std::size_t left = jobs.size();
  for (auto& job : jobs)
    pool.submit([&, job = std::move(job)] {
      job();
      std::lock_guard<std::mutex> lock(mu);
      if (--left == 0) cv.notify_all();
    });
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&left] { return left == 0; });
}

/// Worst sampled-vs-full relative error over the gcc cell of the grid: its
/// baseline and every variant, each also simulated in full (streamed).
double sampling_guard(const exp::SweepSpec& spec, const exp::SweepResult& result,
                      const Options& o, exp::ThreadPool& pool) {
  std::vector<std::pair<MachineConfig, SimResult>> pairs;
  const WorkloadProfile* profile = nullptr;
  for (const exp::PointResult& p : result.points) {
    if (p.point.profile.name != "gcc" || p.point.seed_idx != 0) continue;
    if (!profile) {
      profile = &p.point.profile;
      pairs.emplace_back(spec.baseline, p.baseline);
    }
    pairs.emplace_back(p.point.variant.machine, p.sim);
  }
  if (!profile) return 0.0;
  std::vector<SimResult> full(pairs.size());
  std::vector<std::function<void()>> jobs;
  for (std::size_t i = 0; i < pairs.size(); ++i)
    jobs.push_back([&, i] { full[i] = simulate_streamed(pairs[i].first, *profile, o.len); });
  run_all(pool, jobs);
  double worst = 0.0;
  for (std::size_t i = 0; i < pairs.size(); ++i)
    worst = std::max(worst, sample::max_rel_error(
                                sample::sampling_errors(full[i], pairs[i].second)));
  return worst;
}

std::string run_traced_inprocess(const Options& o) {
  const exp::SweepSpec spec = workload_grids(o).front();
  SpanLog log;
  GridAccum acc;

  const Clock::time_point t_setup = Clock::now();
  const std::vector<exp::ExperimentPoint> points = exp::expand(spec);
  exp::ThreadPool pool(o.threads);
  const double setup_s = seconds_since(t_setup);

  // Baseline cells, shared by every variant of one (workload, seed, length).
  struct Cell {
    const exp::ExperimentPoint* first = nullptr;
    SimResult sim;
    PowerReport power;
  };
  std::map<std::pair<u32, u32>, Cell> cells;
  for (const exp::ExperimentPoint& p : points)
    if (!cells.count(cell_of(p))) cells[cell_of(p)].first = &p;

  const Clock::time_point t0 = Clock::now();
  u64 job_no = 0;
  std::vector<std::function<void()>> jobs;
  for (auto& [idx, cell] : cells) {
    const u64 job = job_no++;
    jobs.push_back([&, job, c = &cell] {
      ScopedSpan j(&log, "exp.job", -1, job);
      c->sim = traced_job(spec.baseline, c->first->profile, o, log, j.id(), job, acc);
      c->power = traced_power(c->sim, spec.baseline, log, j.id(), job);
    });
  }
  run_all(pool, jobs);
  const double phase1_s = seconds_since(t0);

  exp::SweepResult result;
  result.sweep = spec.name;
  result.threads_used = o.threads;
  result.points.resize(points.size());
  const Clock::time_point t1 = Clock::now();
  jobs.clear();
  for (const exp::ExperimentPoint& p : points) {
    const u64 job = job_no++;
    jobs.push_back([&, job, pp = &p] {
      ScopedSpan j(&log, "exp.job", -1, job);
      const Cell& cell = cells.at(cell_of(*pp));
      exp::PointResult pr;
      pr.point = *pp;
      pr.baseline = cell.sim;
      pr.power_baseline = cell.power;
      pr.sim = traced_job(pp->variant.machine, pp->profile, o, log, j.id(), job, acc);
      pr.power_sim = traced_power(pr.sim, pp->variant.machine, log, j.id(), job);
      result.points[pp->index] = std::move(pr);
    });
  }
  run_all(pool, jobs);
  const double phase2_s = seconds_since(t1);

  std::vector<std::string> rows;
  {
    ScopedSpan r(&log, "exp.report", -1, job_no);
    rows = csv_rows(exp::to_csv(result), o);
    if (exp::render_summary(result).empty()) std::abort();
  }
  const double sweep_s = seconds_since(t0);

  // --- layer rows from the spans and the simulated counts -------------------
  const std::map<std::string, SpanLog::Totals> tot = log.totals();
  const auto total_of = [&](const char* name) {
    const auto it = tot.find(name);
    return it == tot.end() ? 0.0 : it->second.total_s;
  };
  const auto count_of = [&](const char* name) {
    const auto it = tot.find(name);
    return it == tot.end() ? u64{0} : it->second.count;
  };
  const u64 n_jobs = cells.size() + points.size();
  const u64 generated = o.sample.enabled() ? acc.generated : cells.size() * o.len;
  const double job_total = total_of("exp.job");

  Layers layers;
  layers.emplace_back("wload.gen_ns_per_uop",
                      generated ? acc.gen_s * 1e9 / static_cast<double>(generated) : 0.0);
  layers.emplace_back("wload.gen_share", job_total > 0.0 ? acc.gen_s / job_total : 0.0);
  layers.emplace_back(
      "sample.discard_per_simulated",
      acc.simulated ? static_cast<double>(acc.generated - acc.simulated) /
                          static_cast<double>(acc.simulated)
                    : 0.0);
  layers.emplace_back("sample.window_ms_p50", percentile(acc.window_s, 50) * 1e3);
  layers.emplace_back("sample.window_ms_p90", percentile(acc.window_s, 90) * 1e3);
  layers.emplace_back("sample.max_rel_err",
                      o.sample.enabled() ? sampling_guard(spec, result, o, pool) : 0.0);

  std::vector<const SimResult*> cell_sims, variant_sims;
  for (const auto& [idx, cell] : cells) cell_sims.push_back(&cell.sim);
  for (const exp::PointResult& p : result.points) variant_sims.push_back(&p.sim);
  simulated_rates(cell_sims, variant_sims, layers);

  const auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  const std::vector<double> job_s = log.durations("exp.job");
  layers.emplace_back("exp.pool_busy_frac",
                      ratio(job_total, static_cast<double>(o.threads) * (phase1_s + phase2_s)));
  layers.emplace_back("exp.job_ms_p50", percentile(job_s, 50) * 1e3);
  layers.emplace_back("exp.job_ms_max", percentile(job_s, 100) * 1e3);
  layers.emplace_back("exp.sims_per_point",
                      ratio(static_cast<double>(n_jobs), static_cast<double>(points.size())));
  layers.emplace_back("exp.report_ms", total_of("exp.report") * 1e3);
  layers.emplace_back("power.analyze_us_per_point",
                      ratio(total_of("power.analyze") * 1e6,
                            static_cast<double>(count_of("power.analyze"))));

  replay_layers(o, layers);
  write_spans(log, o);

  JsonOut j;
  j.str("mode", "traced");
  j.str("workload", o.workload);
  j.num("sweep_s", sweep_s);
  j.num("setup_s", setup_s);
  j.num("attempted", static_cast<double>(n_jobs));
  j.num("failed", 0);
  j.raw("csv", rows_json({spec}, {rows}));
  j.raw("layers", json_object(layers));
  j.raw("spans", spans_json(log));
  return j.finish();
}

std::string run_traced_daemon(const Options& o) {
  SpanLog log;
  DaemonOutcome d = run_daemon_workload(o, &log);
  replay_layers(o, d.layers);
  write_spans(log, o);
  JsonOut j;
  j.str("mode", "traced");
  j.str("workload", o.workload);
  j.num("sweep_s", d.sweep_s);
  j.num("setup_s", median(d.setup_s));
  j.num("attempted", static_cast<double>(d.attempted));
  j.num("failed", static_cast<double>(d.failed));
  j.raw("csv", rows_json(workload_grids(o), d.rows));
  j.raw("layers", json_object(d.layers));
  j.raw("spans", spans_json(log));
  return j.finish();
}

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: hcsim_perf <timed|traced|reference> --workload W --seed N --len N\n"
               "       [--sample-warmup N --sample-measure N --sample-period N]\n"
               "       [--threads N] [--hcsimd PATH] --run-dir DIR\n"
               "       [--corrupt-row] [--kill-daemon-after N]\n");
  std::exit(2);
}

u64 parse_u64(const char* s) {
  char* end = nullptr;
  const u64 v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0') usage();
  return v;
}

}  // namespace
}  // namespace perf

int main(int argc, char** argv) {
  using namespace perf;
  if (argc < 2) usage();
  const std::string mode = argv[1];
  Options o;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage();
      return argv[++i];
    };
    if (arg == "--workload") o.workload = next();
    else if (arg == "--seed") o.seed = parse_u64(next());
    else if (arg == "--len") o.len = parse_u64(next());
    else if (arg == "--sample-warmup") o.sample.warmup = parse_u64(next());
    else if (arg == "--sample-measure") o.sample.measure = parse_u64(next());
    else if (arg == "--sample-period") o.sample.period = parse_u64(next());
    else if (arg == "--threads") o.threads = static_cast<unsigned>(parse_u64(next()));
    else if (arg == "--hcsimd") o.hcsimd = next();
    else if (arg == "--run-dir") o.run_dir = next();
    else if (arg == "--corrupt-row") o.corrupt_row = true;
    else if (arg == "--kill-daemon-after") o.kill_daemon_after = parse_u64(next());
    else usage();
  }
  if (o.len == 0 || o.threads == 0 || o.threads > 64) usage();
  if (o.sample.enabled()) o.sample.validate();
  const bool daemon = o.workload == "daemon_mixed";
  if (o.run_dir.empty() || (daemon && o.hcsimd.empty() && mode != "reference")) usage();

  std::string out;
  if (mode == "timed") out = daemon ? run_timed_daemon(o) : run_timed_inprocess(o);
  else if (mode == "traced") out = daemon ? run_traced_daemon(o) : run_traced_inprocess(o);
  else if (mode == "reference") out = run_reference(o);
  else usage();
  std::printf("%s\n", out.c_str());
  return 0;
}
