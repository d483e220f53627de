#include "exp/report.hpp"

#include <cmath>
#include <cstdio>
#include <map>
#include <sstream>

#include "sample/windowed.hpp"
#include "util/log.hpp"
#include "util/table.hpp"

namespace hcsim::exp {

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double log_sum = 0.0;
  for (double x : v) {
    if (x <= 0.0) return 0.0;
    log_sum += std::log(x);
  }
  return std::exp(log_sum / static_cast<double>(v.size()));
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

std::vector<VariantSummary> summarize(const SweepResult& result) {
  // Group by variant index; variant indices are dense [0, n_variants).
  u32 n_variants = 0;
  for (const PointResult& pr : result.points)
    n_variants = std::max(n_variants, pr.point.variant_idx + 1);

  std::vector<std::vector<const PointResult*>> groups(n_variants);
  for (const PointResult& pr : result.points)
    groups[pr.point.variant_idx].push_back(&pr);

  std::vector<VariantSummary> out;
  out.reserve(n_variants);
  for (const auto& group : groups) {
    if (group.empty()) continue;
    VariantSummary s;
    s.config = group.front()->point.variant.name;
    s.n_points = group.size();
    std::vector<double> speedups, wc_speedups, perf, helper_pct, copy_pct, edp, ed2p;
    for (const PointResult* pr : group) {
      speedups.push_back(pr->speedup());
      wc_speedups.push_back(pr->wide_cycle_speedup());
      perf.push_back(pr->perf_increase_pct());
      helper_pct.push_back(100.0 * pr->sim.helper_frac());
      copy_pct.push_back(100.0 * pr->sim.copy_frac());
      edp.push_back(pr->edp_gain_pct());
      ed2p.push_back(pr->ed2p_gain_pct());
    }
    s.mean_speedup = mean(speedups);
    s.geomean_speedup = geomean(speedups);
    s.mean_perf_pct = mean(perf);
    s.mean_wide_cycle_speedup = mean(wc_speedups);
    s.mean_helper_pct = mean(helper_pct);
    s.mean_copy_pct = mean(copy_pct);
    s.mean_edp_gain_pct = mean(edp);
    s.mean_ed2p_gain_pct = mean(ed2p);
    out.push_back(std::move(s));
  }
  return out;
}

namespace {

std::string fmt(const char* spec, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), spec, v);
  return buf;
}

/// Minimal JSON string escaping (config names contain only ASCII, but stay
/// correct for quotes/backslashes anyway).
std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += '"';
  return out;
}

}  // namespace

std::string to_csv(const SweepResult& result) {
  std::ostringstream os;
  os << "app,config,seed,n_uops,baseline_wide_cycles,wide_cycles,speedup,"
        "perf_pct,wide_cycle_speedup,helper_pct,copy_pct,wp_accuracy_pct,"
        "energy_baseline,energy,edp_gain_pct,ed2p_gain_pct\n";
  for (const PointResult& pr : result.points) {
    os << pr.point.profile.name << ',' << pr.point.variant.name << ','
       << pr.point.profile.seed << ',' << pr.sim.uops << ','
       << fmt("%.0f", pr.baseline.wide_cycles) << ','
       << fmt("%.0f", pr.sim.wide_cycles) << ',' << fmt("%.6f", pr.speedup()) << ','
       << fmt("%.3f", pr.perf_increase_pct()) << ','
       << fmt("%.6f", pr.wide_cycle_speedup()) << ','
       << fmt("%.3f", 100.0 * pr.sim.helper_frac()) << ','
       << fmt("%.3f", 100.0 * pr.sim.copy_frac()) << ','
       << fmt("%.3f", 100.0 * pr.sim.wp_accuracy()) << ','
       << fmt("%.1f", pr.power_baseline.energy) << ',' << fmt("%.1f", pr.power_sim.energy)
       << ',' << fmt("%.3f", pr.edp_gain_pct()) << ','
       << fmt("%.3f", pr.ed2p_gain_pct()) << '\n';
  }
  return os.str();
}

std::string to_json(const SweepResult& result) {
  std::ostringstream os;
  os << "{\n";
  os << "  \"sweep\": " << json_str(result.sweep) << ",\n";
  os << "  \"threads\": " << result.threads_used << ",\n";
  os << "  \"wall_seconds\": " << fmt("%.3f", result.wall_seconds) << ",\n";
  os << "  \"points\": [\n";
  for (std::size_t i = 0; i < result.points.size(); ++i) {
    const PointResult& pr = result.points[i];
    os << "    {\"app\": " << json_str(pr.point.profile.name)
       << ", \"config\": " << json_str(pr.point.variant.name)
       << ", \"seed\": " << pr.point.profile.seed << ", \"n_uops\": " << pr.sim.uops
       << ", \"speedup\": " << fmt("%.6f", pr.speedup())
       << ", \"wide_cycle_speedup\": " << fmt("%.6f", pr.wide_cycle_speedup())
       << ", \"helper_pct\": " << fmt("%.3f", 100.0 * pr.sim.helper_frac())
       << ", \"copy_pct\": " << fmt("%.3f", 100.0 * pr.sim.copy_frac())
       << ", \"energy\": " << fmt("%.1f", pr.power_sim.energy)
       << ", \"edp_gain_pct\": " << fmt("%.3f", pr.edp_gain_pct())
       << ", \"ed2p_gain_pct\": " << fmt("%.3f", pr.ed2p_gain_pct()) << "}"
       << (i + 1 < result.points.size() ? "," : "") << "\n";
  }
  os << "  ],\n";
  const std::vector<VariantSummary> summaries = summarize(result);
  os << "  \"summary\": [\n";
  for (std::size_t i = 0; i < summaries.size(); ++i) {
    const VariantSummary& s = summaries[i];
    os << "    {\"config\": " << json_str(s.config) << ", \"n_points\": " << s.n_points
       << ", \"mean_speedup\": " << fmt("%.6f", s.mean_speedup)
       << ", \"geomean_speedup\": " << fmt("%.6f", s.geomean_speedup)
       << ", \"mean_wide_cycle_speedup\": " << fmt("%.6f", s.mean_wide_cycle_speedup)
       << ", \"mean_perf_pct\": " << fmt("%.3f", s.mean_perf_pct)
       << ", \"mean_helper_pct\": " << fmt("%.3f", s.mean_helper_pct)
       << ", \"mean_copy_pct\": " << fmt("%.3f", s.mean_copy_pct)
       << ", \"mean_edp_gain_pct\": " << fmt("%.3f", s.mean_edp_gain_pct)
       << ", \"mean_ed2p_gain_pct\": " << fmt("%.3f", s.mean_ed2p_gain_pct) << "}"
       << (i + 1 < summaries.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
  return os.str();
}

namespace {

/// Per-metric aggregation across all compared points of a sweep pair.
struct MetricAgg {
  double full_sum = 0.0;
  double sampled_sum = 0.0;
  double max_err = 0.0;
  u64 n = 0;
};

void check_same_shape(const SweepResult& full, const SweepResult& sampled) {
  HCSIM_CHECK(full.points.size() == sampled.points.size(),
              "sampling error report: sweeps have different point counts (" +
                  std::to_string(full.points.size()) + " vs " +
                  std::to_string(sampled.points.size()) + ")");
  for (std::size_t i = 0; i < full.points.size(); ++i) {
    const ExperimentPoint& f = full.points[i].point;
    const ExperimentPoint& s = sampled.points[i].point;
    HCSIM_CHECK(f.profile.name == s.profile.name && f.variant.name == s.variant.name,
                "sampling error report: point " + std::to_string(i) +
                    " mismatch (" + f.profile.name + "/" + f.variant.name + " vs " +
                    s.profile.name + "/" + s.variant.name + ")");
  }
}

}  // namespace

std::string render_sampling_error(const SweepResult& full, const SweepResult& sampled) {
  check_same_shape(full, sampled);
  // Aggregate per metric in first-appearance order; every point contributes
  // its variant run (the shared baseline runs would only duplicate entries).
  std::vector<std::string> order;
  std::map<std::string, MetricAgg> aggs;
  for (std::size_t i = 0; i < full.points.size(); ++i) {
    for (const sample::SampleError& e :
         sample::sampling_errors(full.points[i].sim, sampled.points[i].sim)) {
      auto it = aggs.find(e.metric);
      if (it == aggs.end()) {
        order.push_back(e.metric);
        it = aggs.emplace(e.metric, MetricAgg{}).first;
      }
      it->second.full_sum += e.full;
      it->second.sampled_sum += e.sampled;
      it->second.max_err = std::max(it->second.max_err, e.rel_err);
      ++it->second.n;
    }
  }
  TextTable t({"metric", "full (mean)", "sampled (mean)", "max rel err %"});
  for (const std::string& m : order) {
    const MetricAgg& a = aggs.at(m);
    const double n = a.n > 0 ? static_cast<double>(a.n) : 1.0;
    t.add_row({m, TextTable::num(a.full_sum / n, 5), TextTable::num(a.sampled_sum / n, 5),
               TextTable::num(100.0 * a.max_err, 3)});
  }
  std::ostringstream os;
  os << "Sampled vs full (" << full.points.size() << " points, worst point per metric)\n"
     << t.render();
  return os.str();
}

double max_sampling_rel_error(const SweepResult& full, const SweepResult& sampled) {
  check_same_shape(full, sampled);
  double worst = 0.0;
  for (std::size_t i = 0; i < full.points.size(); ++i)
    for (const sample::SampleError& e :
         sample::sampling_errors(full.points[i].sim, sampled.points[i].sim))
      if (!e.metric.starts_with("counter/stall_")) worst = std::max(worst, e.rel_err);
  return worst;
}

std::string render_summary(const SweepResult& result) {
  TextTable t({"config", "points", "perf+% (avg)", "speedup (geo)", "helper %",
               "copy %", "EDP gain %", "ED2 gain %"});
  for (const VariantSummary& s : summarize(result)) {
    t.add_row({s.config, std::to_string(s.n_points), TextTable::num(s.mean_perf_pct, 1),
               TextTable::num(s.geomean_speedup, 3), TextTable::num(s.mean_helper_pct, 1),
               TextTable::num(s.mean_copy_pct, 1), TextTable::num(s.mean_edp_gain_pct, 1),
               TextTable::num(s.mean_ed2p_gain_pct, 1)});
  }
  return t.render();
}

}  // namespace hcsim::exp
