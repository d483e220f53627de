// hcsim_bench — simulator-throughput measurement for the repo's own
// performance trajectory (items/sec, not a paper figure).
//
// Times the hot paths that dominate every experiment: synthetic trace
// generation, the seek of a sampled stream (trace_skip: the generator
// stepping over µops it builds no records for), the baseline pipeline, the batched SoA feed with a shared
// decode cache (pipeline_batched) and its cache-disabled twin
// (pipeline_batched_nocache — the gap isolates the cache), the helper+IR
// pipeline, the fused streaming path (generation + simulation, no
// materialized trace), the warm-up/measure sampled path (pipeline_sampled: a 5-window schedule
// simulating ~25% of the trace — its items/sec counts *trace µops covered*,
// so the gap to pipeline_streamed is the sampling speedup), and the
// cumulative ladder as a cached sweep cell runs it (pipeline_ladder: the
// baseline and the 7 rungs walking one shared outcome pass, counted in
// config-µops, so it compares with pipeline_baseline). Results go to
// stdout as JSON; append them to BENCH_sim_throughput.json so each PR has a
// recorded baseline to beat (see README "Performance"). These are the
// repository's only whole-pipeline rates; bench_sim_throughput times the
// ClusterEpoch engine and the width predictor alone.
//
// Usage:
//   hcsim_bench [--uops N] [--reps N] [--label S] [--json FILE]
//
// Defaults: 100000 µops, 5 repetitions; the best rep wins, whatever --reps
// says.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "bbcache/bb_cache.hpp"
#include "core/outcome_model.hpp"
#include "exp/sweep.hpp"
#include "sample/spec.hpp"
#include "sample/windowed.hpp"
#include "sim/simulator.hpp"
#include "wload/executor.hpp"
#include "wload/program_gen.hpp"

using namespace hcsim;

namespace {

u64 parse_u64(const char* flag, const char* s) {
  char* end = nullptr;
  const u64 v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0' || v == 0) {
    std::fprintf(stderr, "%s: bad value '%s' (positive integer required)\n", flag, s);
    std::exit(2);
  }
  return v;
}

/// Best-of-`reps` throughput of `body` in items (µops) per second.
template <typename Fn>
double best_items_per_sec(u64 n_items, unsigned reps, Fn&& body) {
  double best = 0.0;
  for (unsigned r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    body();
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    if (secs > 0.0) best = std::max(best, static_cast<double>(n_items) / secs);
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  u64 n_uops = 100000;
  unsigned reps = 5;
  std::string label = "local";
  std::string json_path;
  double max_helper_gap = 0.0;  // 0 = no assertion
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--uops") {
      n_uops = parse_u64("--uops", next());
    } else if (arg == "--reps") {
      reps = static_cast<unsigned>(parse_u64("--reps", next()));
    } else if (arg == "--label") {
      label = next();
    } else if (arg == "--json") {
      json_path = next();
    } else if (arg == "--max-helper-gap") {
      max_helper_gap = std::strtod(next(), nullptr);
      if (max_helper_gap <= 0.0) {
        std::fprintf(stderr, "--max-helper-gap: positive ratio required\n");
        return 2;
      }
    } else {
      std::fprintf(stderr,
                   "usage: %s [--uops N] [--reps N] [--label S] [--json FILE]\n"
                   "          [--max-helper-gap X]\n",
                   argv[0]);
      return 2;
    }
  }

  const WorkloadProfile& prof = spec_profile("gcc");
  const MachineConfig baseline = monolithic_baseline();
  const MachineConfig helper_ir = helper_machine(steering_ir());

  const double gen = best_items_per_sec(n_uops, reps, [&] {
    Trace t = generate_trace(prof, n_uops);
    if (t.records.empty()) std::abort();  // keep the work observable
  });

  // At least 1M µops per rep: a skip runs fast enough that the timer's
  // resolution would dominate a 30k-µop rep.
  const u64 skip_uops = std::max<u64>(n_uops, 1000000);
  const Program program = generate_program(prof);
  const double skip = best_items_per_sec(skip_uops, reps, [&] {
    ProgramTraceCursor cursor(program, prof, skip_uops);
    if (cursor.skip(skip_uops) != skip_uops) std::abort();
  });

  const Trace& trace = cached_trace(prof, n_uops);
  const double base = best_items_per_sec(n_uops, reps, [&] {
    SimResult r = simulate(baseline, trace);
    if (r.final_tick == 0) std::abort();
  });
  const double ir = best_items_per_sec(n_uops, reps, [&] {
    SimResult r = simulate(helper_ir, trace);
    if (r.final_tick == 0) std::abort();
  });
  const double streamed = best_items_per_sec(n_uops, reps, [&] {
    SimResult r = simulate_streamed(baseline, prof, n_uops);
    if (r.final_tick == 0) std::abort();
  });

  // Batched SoA feed with a decode cache shared across reps (the sweep
  // driver's steady state) and its cache-disabled twin: the gap between the
  // two isolates the decode cache's contribution.
  DecodeCache shared_cache(/*enabled=*/true);
  const double batched = best_items_per_sec(n_uops, reps, [&] {
    Pipeline p(baseline, trace.program, &shared_cache);
    p.feed(std::span<const TraceRecord>(trace.records));
    SimResult r = p.finish();
    if (r.final_tick == 0) std::abort();
  });
  DecodeCache off_cache(/*enabled=*/false);
  const double batched_nocache = best_items_per_sec(n_uops, reps, [&] {
    Pipeline p(baseline, trace.program, &off_cache);
    p.feed(std::span<const TraceRecord>(trace.records));
    SimResult r = p.finish();
    if (r.final_tick == 0) std::abort();
  });

  // The ladder of a cached sweep cell: one outcome pass over the trace per
  // distinct outcome key (one here), then each config's timing walk.
  std::vector<MachineConfig> ladder = {baseline};
  for (const exp::ConfigVariant& v : exp::cumulative_scheme_variants())
    ladder.push_back(v.machine);
  const double ladder_rate = best_items_per_sec(n_uops * ladder.size(), reps, [&] {
    const SharedOutcomes outcomes = shared_outcomes(ladder, trace);
    for (std::size_t k = 0; k < ladder.size(); ++k) {
      Pipeline p(ladder[k], trace.program);
      p.feed(trace.records, outcomes[k]);
      if (p.finish().final_tick == 0) std::abort();
    }
  });

  // Sampled path: 5 windows of 1% warm-up + 4% measure each, so ~25% of the
  // trace is actually fed. Throughput still counts every trace µop *covered*
  // (simulated or skipped) — the paper-scale figure of merit.
  sample::SampleSpec sspec;
  sspec.warmup = std::max<u64>(1, n_uops / 100);
  sspec.measure = std::max<u64>(1, n_uops / 25);
  sspec.period = n_uops / 5;
  const double sampled = best_items_per_sec(n_uops, reps, [&] {
    sample::SampledResult r = sample::simulate_sampled(baseline, prof, n_uops, sspec);
    if (r.total.final_tick == 0) std::abort();
  });

  std::string escaped_label;
  for (char c : label) {
    if (c == '"' || c == '\\') {
      escaped_label += '\\';
      escaped_label += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char esc[8];
      std::snprintf(esc, sizeof(esc), "\\u%04x", c);
      escaped_label += esc;
    } else {
      escaped_label += c;
    }
  }
  // Helper-cluster slowdown factor: the helper+IR machine simulates the
  // same trace through two clusters and the copy machinery, so it is
  // inherently slower per µop; the gap is the honest measure of how much.
  // Computed from the same run, so machine-load drift cancels.
  const double helper_gap = ir > 0.0 ? base / ir : 0.0;

  char buf[896];
  std::string json = "{\n  \"label\": \"" + escaped_label + "\",\n";
  std::snprintf(buf, sizeof(buf),
                "  \"workload\": \"gcc\",\n"
                "  \"uops\": %llu,\n"
                "  \"reps\": %u,\n"
                "  \"helper_gap\": %.3f,\n"
                "  \"items_per_second\": {\n"
                "    \"trace_gen\": %.0f,\n"
                "    \"trace_skip\": %.0f,\n"
                "    \"pipeline_baseline\": %.0f,\n"
                "    \"pipeline_batched\": %.0f,\n"
                "    \"pipeline_batched_nocache\": %.0f,\n"
                "    \"pipeline_helper_ir\": %.0f,\n"
                "    \"pipeline_streamed\": %.0f,\n"
                "    \"pipeline_sampled\": %.0f,\n"
                "    \"pipeline_ladder\": %.0f\n"
                "  }\n"
                "}\n",
                static_cast<unsigned long long>(n_uops), reps, helper_gap, gen,
                skip, base, batched, batched_nocache, ir, streamed, sampled, ladder_rate);
  json += buf;
  std::fputs(json.c_str(), stdout);
  if (!json_path.empty()) {
    std::ofstream f(json_path, std::ios::binary);
    if (!f || !(f << json)) {
      std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
      return 1;
    }
  }
  if (max_helper_gap > 0.0 && helper_gap > max_helper_gap) {
    std::fprintf(stderr,
                 "helper gap %.3f exceeds --max-helper-gap %.3f "
                 "(pipeline_helper_ir fell too far behind pipeline_baseline)\n",
                 helper_gap, max_helper_gap);
    return 1;
  }
  return 0;
}
