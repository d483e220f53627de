// hcsim_run — simulate a saved trace (or a named profile) on a steering
// configuration and print the full result, including the power report.
//
// Usage:
//   hcsim_run <trace.hctrace|profile-name> [scheme] [n_uops]
//             [--sampled] [--sample-warmup N] [--sample-measure N]
//             [--sample-period N] [--sample-windows N]
//             [--compare-full] [--verbose]
//
// --verbose additionally dumps every raw event counter (bb_cache_*,
// issue_*, rf_write_*, ...) after the summary.
//
// scheme: baseline 888 br lr cr cp ir irn      (default: ir)
//
// Sampling: --sampled switches to warm-up/measure windowed simulation
// (defaults warmup=20000 measure=80000, period auto ~20 windows) and prints
// the per-window table; any --sample-* flag implies --sampled and overrides
// the HCSIM_SAMPLE_* environment. --compare-full additionally runs the full
// simulation and prints the sampled-vs-full error per metric.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "core/counters.hpp"
#include "power/power_model.hpp"
#include "sample/spec.hpp"
#include "sample/windowed.hpp"
#include "sim/simulator.hpp"

using namespace hcsim;

namespace {

SteeringConfig scheme_by_name(const std::string& s) {
  if (s == "baseline") return steering_baseline();
  if (s == "888") return steering_888();
  if (s == "br") return steering_888_br();
  if (s == "lr") return steering_888_br_lr();
  if (s == "cr") return steering_888_br_lr_cr();
  if (s == "cp") return steering_cp();
  if (s == "irn") return steering_ir_nodest();
  return steering_ir();
}

bool is_spec_name(const std::string& s) {
  for (const WorkloadProfile& p : spec_int_2000_profiles())
    if (p.name == s) return true;
  return false;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <trace.hctrace|profile> [scheme] [n_uops]\n"
               "          [--sampled] [--sample-warmup N] [--sample-measure N]\n"
               "          [--sample-period N] [--sample-windows N]\n"
               "          [--compare-full] [--verbose]\n",
               argv0);
  return 2;
}

/// Parse one decimal integer, rejecting trailing garbage ("100k").
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

void print_counters(const SimResult& r) {
  std::printf("\ncounters:\n");
  for (std::size_t i = 0; i < kNumCounters; ++i) {
    const Counter c = static_cast<Counter>(i);
    std::printf("  %-24s %llu\n", std::string(counter_name(c)).c_str(),
                (unsigned long long)r.counters.get(c));
  }
}

void print_result(const SimResult& r, const MachineConfig& cfg) {
  const PowerReport power = analyze_power(r, cfg);
  std::printf("\nworkload      : %s (%llu uops)\n", r.workload.c_str(),
              static_cast<unsigned long long>(r.uops));
  std::printf("config        : %s\n", r.config.c_str());
  std::printf("wide cycles   : %.0f   IPC %.3f\n", r.wide_cycles, r.ipc);
  std::printf("steered       : %.1f%% (BR %llu, CR %llu, splits %llu)\n",
              100.0 * r.helper_frac(), (unsigned long long)r.br_steered,
              (unsigned long long)r.cr_steered, (unsigned long long)r.split_uops);
  std::printf("copies        : %.1f%% (w2n %llu, n2w %llu, prefetched %llu)\n",
              100.0 * r.copy_frac(), (unsigned long long)r.copies_w2n,
              (unsigned long long)r.copies_n2w,
              (unsigned long long)r.copy_prefetches);
  std::printf("width pred    : %.2f%% correct, %.3f%% fatal\n",
              100.0 * r.wp_accuracy(), 100.0 * r.fatal_rate());
  std::printf("branches      : %llu (%.2f%% mispredicted)\n",
              (unsigned long long)r.branches,
              r.branches ? 100.0 * static_cast<double>(r.branch_mispredicts) /
                               static_cast<double>(r.branches)
                         : 0.0);
  std::printf("caches        : DL0 %.1f%%, UL1 %.1f%% hit\n",
              100.0 * r.dl0_hit_rate, 100.0 * r.ul1_hit_rate);
  std::printf("NREADY        : w2n %.1f%%  n2w %.1f%%\n", r.nready_w2n_pct(),
              r.nready_n2w_pct());
  std::printf("energy        : %.0f (frontend %.0f, wide %.0f, helper %.0f, "
              "mem %.0f, clock %.0f, copies %.0f)\n",
              power.energy, power.frontend, power.wide_backend,
              power.helper_backend, power.memory, power.clock, power.copies);
  std::printf("ED^2          : %.3g\n", power.ed2p);
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> positional;
  sample::SampleSpec spec = sample::spec_from_env();
  bool sampled = spec.enabled();
  bool compare_full = false;
  bool verbose = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--sampled") {
      sampled = true;
    } else if (arg == "--sample-warmup") {
      spec.warmup = parse_u64("--sample-warmup", next(), /*allow_zero=*/true);
      sampled = true;
    } else if (arg == "--sample-measure") {
      spec.measure = parse_u64("--sample-measure", next(), /*allow_zero=*/false);
      sampled = true;
    } else if (arg == "--sample-period") {
      spec.period = parse_u64("--sample-period", next(), /*allow_zero=*/true);
      sampled = true;
    } else if (arg == "--sample-windows") {
      spec.max_windows = parse_u64("--sample-windows", next(), /*allow_zero=*/true);
      sampled = true;
    } else if (arg == "--compare-full") {
      compare_full = true;
      sampled = true;
    } else if (arg == "--verbose") {
      verbose = true;
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
      return usage(argv[0]);
    } else {
      positional.push_back(arg);
    }
  }
  if (positional.empty() || positional.size() > 3) return usage(argv[0]);

  const std::string source = positional[0];
  const SteeringConfig steer =
      scheme_by_name(positional.size() > 1 ? positional[1] : "ir");
  const u64 n = positional.size() > 2
                    ? parse_u64("n_uops", positional[2].c_str(), /*allow_zero=*/false)
                    : default_trace_len();
  if (sampled) {
    if (spec.measure == 0) spec.measure = sample::kDefaultMeasure;
    if (const std::string bad = sample::spec_error(spec); !bad.empty()) {
      std::fprintf(stderr, "%s\n", bad.c_str());
      return 2;
    }
  }

  const MachineConfig cfg =
      steer.helper_enabled ? helper_machine(steer) : monolithic_baseline();
  std::printf("%s", describe_machine(cfg).c_str());

  // The trace source: a SPEC/rv profile routes through the cached/streamed
  // trace machinery; anything else must be a readable .hctrace file.
  const bool from_profile = is_spec_name(source);
  Trace owned;
  if (!from_profile && !load_trace(owned, source)) {
    std::fprintf(stderr, "'%s' is neither a SPEC profile nor a readable trace\n",
                 source.c_str());
    return 1;
  }

  if (!sampled) {
    const SimResult r = from_profile ? simulate_workload(cfg, spec_profile(source), n,
                                                         sample::SampleSpec{})
                                     : simulate(cfg, owned);
    print_result(r, cfg);
    if (verbose) print_counters(r);
    return 0;
  }

  const sample::SampledResult sr =
      from_profile ? sample::simulate_sampled(cfg, spec_profile(source), n, spec)
                   : sample::simulate_sampled(cfg, owned, spec);
  std::printf("\nsampling      : %s\n", spec.describe().c_str());
  if (!sr.sampled) {
    std::printf("trace too short for the schedule; fell back to a full run\n");
  } else {
    std::printf("windows       : %zu (%llu of %llu uops simulated, %llu measured)\n",
                sr.windows.size(), (unsigned long long)sr.simulated_uops,
                (unsigned long long)sr.trace_len,
                (unsigned long long)sr.measured_uops);
    std::printf("\n%s", sample::render_window_table(sr).c_str());
  }
  print_result(sr.total, cfg);
  if (verbose) print_counters(sr.total);

  if (compare_full) {
    const SimResult full = from_profile ? simulate_workload(cfg, spec_profile(source), n,
                                                            sample::SampleSpec{})
                                        : simulate(cfg, owned);
    std::printf("\nsampled vs full:\n");
    for (const sample::SampleError& e : sample::sampling_errors(full, sr.total))
      std::printf("  %-28s full %12.6f  sampled %12.6f  rel err %6.2f%%\n",
                  e.metric.c_str(), e.full, e.sampled, 100.0 * e.rel_err);
  }
  return 0;
}
