#include "exp/sweep.hpp"

#include "rv/kernels.hpp"
#include "sim/simulator.hpp"
#include "util/log.hpp"

namespace hcsim::exp {

ConfigVariant variant_from_steering(const SteeringConfig& steer) {
  if (!steer.helper_enabled) return {"baseline", monolithic_baseline()};
  return {steer.describe(), helper_machine(steer)};
}

std::vector<ConfigVariant> cumulative_scheme_variants() {
  return {
      variant_from_steering(steering_888()),
      variant_from_steering(steering_888_br()),
      variant_from_steering(steering_888_br_lr()),
      variant_from_steering(steering_888_br_lr_cr()),
      variant_from_steering(steering_cp()),
      variant_from_steering(steering_ir()),
      variant_from_steering(steering_ir_nodest()),
  };
}

SweepSpec::SweepSpec() : baseline(monolithic_baseline()) {}

u64 SweepSpec::num_points() const {
  const u64 s = seeds.empty() ? 1 : seeds.size();
  const u64 l = trace_lens.empty() ? 1 : trace_lens.size();
  return workloads.size() * variants.size() * s * l;
}

std::vector<ExperimentPoint> expand(const SweepSpec& spec) {
  const std::vector<u64> seeds = spec.seeds.empty() ? std::vector<u64>{0} : spec.seeds;
  const std::vector<u64> lens =
      spec.trace_lens.empty() ? std::vector<u64>{0} : spec.trace_lens;

  std::vector<ExperimentPoint> points;
  points.reserve(spec.workloads.size() * spec.variants.size() * seeds.size() *
                 lens.size());
  for (u32 wi = 0; wi < spec.workloads.size(); ++wi)
    for (u32 vi = 0; vi < spec.variants.size(); ++vi)
      for (u32 si = 0; si < seeds.size(); ++si)
        for (u32 li = 0; li < lens.size(); ++li) {
          ExperimentPoint p;
          p.index = static_cast<u32>(points.size());
          p.workload_idx = wi;
          p.variant_idx = vi;
          p.seed_idx = si;
          p.len_idx = li;
          p.profile = spec.workloads[wi];
          if (seeds[si] != 0) p.profile.seed = seeds[si];
          p.variant = spec.variants[vi];
          p.n_records = lens[li] != 0 ? lens[li] : default_trace_len();
          points.push_back(std::move(p));
        }
  return points;
}

namespace {

std::vector<WorkloadProfile> apps(std::initializer_list<const char*> names) {
  std::vector<WorkloadProfile> out;
  for (const char* n : names) out.push_back(spec_profile(n));
  return out;
}

SweepSpec make_fig06() {
  SweepSpec s;
  s.name = "fig06";
  s.workloads = spec_int_2000_profiles();
  s.variants = {variant_from_steering(steering_888())};
  return s;
}

SweepSpec make_fig05() {
  // Figure 5's accuracy table reads the 8_8_8 points; the Section 3.2
  // confidence-estimator claim compares them with the same machine without
  // the estimator.
  SweepSpec s = make_fig06();
  s.name = "fig05";
  ConfigVariant noconf = s.variants.front();
  noconf.name = "8_8_8-noconf";
  noconf.machine.wpred.use_confidence = false;
  s.variants.push_back(std::move(noconf));
  return s;
}

SweepSpec make_fig12() {
  SweepSpec s;
  s.name = "fig12";
  s.workloads = spec_int_2000_profiles();
  s.variants = {variant_from_steering(steering_888()),
                variant_from_steering(steering_888_br_lr_cr())};
  return s;
}

SweepSpec make_fig14() {
  // The wrap-up study: every Table 2 category app on the best scheme, at a
  // shorter length than the SPEC figures so the 409 cells stay cheap.
  SweepSpec s;
  s.name = "fig14";
  for (const WorkloadCategory& cat : workload_categories())
    for (unsigned i = 0; i < cat.num_traces; ++i)
      s.workloads.push_back(category_app_profile(cat, i));
  s.variants = {variant_from_steering(steering_ir())};
  s.trace_lens = {40000};
  return s;
}

SweepSpec make_cumulative() {
  SweepSpec s;
  s.name = "cumulative";
  s.workloads = spec_int_2000_profiles();
  s.variants = cumulative_scheme_variants();
  return s;
}

SweepSpec make_edp() {
  SweepSpec s;
  s.name = "edp";
  s.workloads = spec_int_2000_profiles();
  s.variants = {variant_from_steering(steering_ir())};
  return s;
}

SweepSpec make_helper_design() {
  SweepSpec s;
  s.name = "helper_design";
  s.workloads = apps({"gcc", "gzip", "twolf", "parser", "vpr"});
  for (unsigned ratio : {1u, 2u, 3u, 4u}) {
    ConfigVariant v = variant_from_steering(steering_ir());
    v.name = "clock" + std::to_string(ratio) + "x";
    v.machine.ticks_per_wide_cycle = ratio;
    s.variants.push_back(std::move(v));
  }
  // width8 is omitted: it would be the same machine as clock2x (8-bit
  // datapath at the default 2x clock) — the benches reuse that variant.
  for (unsigned width : {4u, 16u}) {
    ConfigVariant v = variant_from_steering(steering_ir());
    v.name = "width" + std::to_string(width);
    v.machine.helper_width_bits = width;
    s.variants.push_back(std::move(v));
  }
  {
    ConfigVariant v = variant_from_steering(steering_ir());
    v.name = "iq16x2";
    v.machine.iq_helper = 16;
    v.machine.issue_helper = 2;
    s.variants.push_back(std::move(v));
  }
  return s;
}

SweepSpec make_predictor_size() {
  // Section 3.2's width predictor table size (256 entries is the paper's
  // design point) on the CR machine.
  SweepSpec s;
  s.name = "predictor_size";
  s.workloads = apps({"gcc", "gzip", "twolf", "parser"});
  for (u32 entries : {16u, 64u, 256u, 1024u, 4096u}) {
    ConfigVariant v = variant_from_steering(steering_888_br_lr_cr());
    v.name = "wpred" + std::to_string(entries);
    v.machine.wpred.entries = entries;
    s.variants.push_back(std::move(v));
  }
  return s;
}

SweepSpec make_ir_block() {
  // Per-µop splitting against the block-granularity splitting Section 3.7
  // proposes.
  SweepSpec s;
  s.name = "ir_block";
  s.workloads = spec_int_2000_profiles();
  s.variants = {variant_from_steering(steering_ir()),
                variant_from_steering(steering_ir_block())};
  return s;
}

SweepSpec make_rv() {
  // Every bundled RISC-V kernel across the cumulative steering ladder: the
  // real-program counterpart of the `cumulative` sweep.
  SweepSpec s;
  s.name = "rv";
  s.workloads = rv::rv_workload_profiles();
  s.variants = cumulative_scheme_variants();
  return s;
}

SweepSpec make_smoke() {
  SweepSpec s;
  s.name = "smoke";
  s.workloads = apps({"bzip2", "gcc", "mcf"});
  s.variants = {variant_from_steering(steering_888()),
                variant_from_steering(steering_888_br_lr_cr())};
  s.trace_lens = {8000};
  return s;
}

// Single registry table: sweep_names() and find_sweep() cannot drift apart.
struct NamedSweep {
  const char* name;
  SweepSpec (*make)();
};
constexpr NamedSweep kSweeps[] = {
    {"fig05", make_fig05},
    {"fig06", make_fig06},
    {"fig12", make_fig12},
    {"fig14", make_fig14},
    {"cumulative", make_cumulative},
    {"edp", make_edp},
    {"helper_design", make_helper_design},
    {"predictor_size", make_predictor_size},
    {"ir_block", make_ir_block},
    {"rv", make_rv},
    {"smoke", make_smoke},
};

}  // namespace

const std::vector<std::string>& sweep_names() {
  static const std::vector<std::string> kNames = [] {
    std::vector<std::string> names;
    for (const NamedSweep& s : kSweeps) names.push_back(s.name);
    return names;
  }();
  return kNames;
}

std::optional<SweepSpec> find_sweep(const std::string& name) {
  for (const NamedSweep& s : kSweeps)
    if (name == s.name) return s.make();
  return std::nullopt;
}

}  // namespace hcsim::exp
