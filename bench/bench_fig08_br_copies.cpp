// Figure 8 — decrease in copy percentage due to the BR scheme
// (branches steered to the flags producer's cluster). Reads the 8_8_8 and
// +BR rungs of the "cumulative" sweep.
#include "bench_util.hpp"

using namespace hcsim;
using namespace hcsim::bench;

int main() {
  header("Figure 8 - copy percentage: 8_8_8 vs 8_8_8+BR",
         "BR steers 19.5% of instructions and cuts copies to 10.8%, +9% perf");

  const exp::SweepResult res = run_named_sweep("cumulative");

  TextTable t({"app", "8_8_8 copies%", "+BR copies%"});
  std::vector<double> base_copies, br_copies, br_steered, br_gain;
  for (const auto& row : rows_of(res, {"8_8_8", "8_8_8+BR"})) {
    const double c0 = 100.0 * row[0]->sim.copy_frac();
    const double c1 = 100.0 * row[1]->sim.copy_frac();
    base_copies.push_back(c0);
    br_copies.push_back(c1);
    br_steered.push_back(100.0 * row[1]->sim.helper_frac());
    br_gain.push_back(row[1]->perf_increase_pct());
    t.add_row({row[0]->point.profile.name, TextTable::num(c0, 1), TextTable::num(c1, 1)});
  }
  t.add_row({"AVG", TextTable::num(avg(base_copies), 1), TextTable::num(avg(br_copies), 1)});
  std::printf("%s\n", t.render().c_str());
  std::printf("+BR steers %.1f%% of instructions, perf +%.1f%% (paper: 19.5%%, +9%%)\n",
              avg(br_steered), avg(br_gain));
  footer_shape(avg(br_copies) < avg(base_copies),
               "BR simultaneously raises helper occupancy and cuts copies");
  return 0;
}
