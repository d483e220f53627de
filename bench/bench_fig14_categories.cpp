// Figure 14 + Table 2 — the wrap-up study: per-category performance of the
// best steering (IR) over 409 generated applications in 7 categories, plus
// the per-app S-curve summary (baseline = 1).
//
// Driven by the exp/ sweep engine ("fig14": the 409 apps x {+IR} at 40k
// µops, shorter than the SPEC figures; `hcsim_sweep fig14 --len N` reruns
// the grid at another length).
#include <algorithm>

#include "bench_util.hpp"

using namespace hcsim;
using namespace hcsim::bench;

int main() {
  header("Figure 14 - helper cluster performance across workload categories",
         "consistent gains; multimedia/kernels/sfp benefit more than "
         "office/productivity; 11% average over the full set");

  const exp::SweepResult res = run_named_sweep("fig14");

  // The grid is category-major: each category's apps in index order.
  std::vector<double> all_speedups;
  TextTable t({"category", "#traces", "perf increase %", "bar"});
  std::vector<std::pair<std::string, double>> cat_gain;
  for (const WorkloadCategory& cat : workload_categories()) {
    std::vector<double> speedups;
    for (unsigned i = 0; i < cat.num_traces; ++i) {
      const exp::PointResult& pr = res.points.at(all_speedups.size());
      HCSIM_CHECK(pr.point.profile.name == category_app_profile(cat, i).name,
                  "fig14 sweep grid is no longer category-major");
      speedups.push_back(pr.speedup());
      all_speedups.push_back(pr.speedup());
    }
    const double gain = (geomean(speedups) - 1.0) * 100.0;
    cat_gain.emplace_back(cat.name, gain);
    t.add_row({cat.name, std::to_string(cat.num_traces), TextTable::num(gain, 1),
               ascii_bar(gain, 30.0, 30)});
  }
  const double overall = (geomean(all_speedups) - 1.0) * 100.0;
  t.add_row({"ALL", std::to_string(all_speedups.size()), TextTable::num(overall, 1),
             ascii_bar(overall, 30.0, 30)});
  std::printf("%s\n", t.render().c_str());

  // S-curve summary (the paper plots per-app speedup sorted ascending).
  std::sort(all_speedups.begin(), all_speedups.end());
  auto q = [&](double f) {
    return all_speedups[static_cast<std::size_t>(f * (all_speedups.size() - 1))];
  };
  std::printf("S-curve (baseline=1): min %.2f  p10 %.2f  p25 %.2f  median %.2f  "
              "p75 %.2f  p90 %.2f  max %.2f\n",
              all_speedups.front(), q(0.10), q(0.25), q(0.50), q(0.75), q(0.90),
              all_speedups.back());
  const double frac_above_1 =
      static_cast<double>(std::count_if(all_speedups.begin(), all_speedups.end(),
                                        [](double s) { return s > 1.0; })) /
      static_cast<double>(all_speedups.size());
  std::printf("fraction of apps with speedup > 1: %.1f%%\n", 100.0 * frac_above_1);

  // Shape: regular/arithmetic categories beat office/productivity.
  double regular = 0, irregular = 0;
  for (const auto& [name, gain] : cat_gain) {
    if (name == "kernels" || name == "mm" || name == "sfp" || name == "enc")
      regular += gain / 4.0;
    if (name == "office" || name == "prod") irregular += gain / 2.0;
  }
  footer_shape(overall > 0.0 && regular > irregular && frac_above_1 > 0.8,
               "consistent gains; regular/arithmetic categories benefit most");
  return 0;
}
