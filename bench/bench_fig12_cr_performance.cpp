// Figure 12 — performance of the Carry Not Propagated (CR) scheme:
// 8_8_8 vs 8_8_8+BR+LR+CR per app. Driven by the exp/ sweep engine
// ("fig12": 12 apps x {8_8_8, 8_8_8+BR+LR+CR}).
#include "bench_util.hpp"

using namespace hcsim;
using namespace hcsim::bench;

int main() {
  header("Figure 12 - performance of the CR scheme",
         "47.5% of instructions execute in the helper with 15.7% copies; "
         "+14.5% average performance (vs +6.2% for plain 8_8_8)");

  const exp::SweepResult res = run_named_sweep("fig12");

  TextTable t({"app", "8_8_8 %", "8_8_8+BR+LR+CR %"});
  std::vector<double> g0s, g1s, steered, copies;
  for (const auto& row : rows_of(res, {"8_8_8", "8_8_8+BR+LR+CR"})) {
    g0s.push_back(row[0]->perf_increase_pct());
    g1s.push_back(row[1]->perf_increase_pct());
    steered.push_back(100.0 * row[1]->sim.helper_frac());
    copies.push_back(100.0 * row[1]->sim.copy_frac());
    t.add_row({row[0]->point.profile.name, TextTable::num(g0s.back(), 1),
               TextTable::num(g1s.back(), 1)});
  }
  t.add_row({"AVG", TextTable::num(avg(g0s), 1), TextTable::num(avg(g1s), 1)});
  std::printf("%s\n", t.render().c_str());
  std::printf("CR config: %.1f%% steered, %.1f%% copies (paper: 47.5%%, 15.7%%)\n",
              avg(steered), avg(copies));
  footer_shape(avg(g1s) > avg(g0s) && avg(steered) > 35.0,
               "CR raises both helper occupancy and performance over 8_8_8");
  return 0;
}
