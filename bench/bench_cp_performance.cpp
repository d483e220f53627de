// Section 3.6 — Copy Prefetching: predictor accuracy (~90%), copy
// percentage (21.4%) and performance (+16.7% vs +14.5% for CR). Reads the
// +CR and +CP rungs of the "cumulative" sweep.
#include "bench_util.hpp"

using namespace hcsim;
using namespace hcsim::bench;

int main() {
  header("Section 3.6 - Copy Prefetching (CP)",
         "CP predictor ~90% accurate; copies rise to 21.4%; perf to +16.7%");

  const exp::SweepResult res = run_named_sweep("cumulative");

  TextTable t({"app", "CR perf%", "+CP perf%", "CR copies%", "+CP copies%",
               "prefetch useful%"});
  std::vector<double> g0s, g1s, c0s, c1s, acc;
  for (const auto& row : rows_of(res, {"8_8_8+BR+LR+CR", "8_8_8+BR+LR+CR+CP"})) {
    const double g0 = row[0]->perf_increase_pct();
    const double g1 = row[1]->perf_increase_pct();
    const double c0 = 100.0 * row[0]->sim.copy_frac();
    const double c1 = 100.0 * row[1]->sim.copy_frac();
    const SimResult& cp = row[1]->sim;
    const double useful = cp.copy_prefetches
                              ? 100.0 * static_cast<double>(cp.cp_useful) /
                                    static_cast<double>(cp.copy_prefetches)
                              : 0.0;
    g0s.push_back(g0);
    g1s.push_back(g1);
    c0s.push_back(c0);
    c1s.push_back(c1);
    acc.push_back(useful);
    t.add_row({row[0]->point.profile.name, TextTable::num(g0, 1),
               TextTable::num(g1, 1), TextTable::num(c0, 1), TextTable::num(c1, 1),
               TextTable::num(useful, 1)});
  }
  t.add_row({"AVG", TextTable::num(avg(g0s), 1), TextTable::num(avg(g1s), 1),
             TextTable::num(avg(c0s), 1), TextTable::num(avg(c1s), 1),
             TextTable::num(avg(acc), 1)});
  std::printf("%s\n", t.render().c_str());
  footer_shape(avg(g1s) >= avg(g0s) - 0.3 && avg(c1s) > avg(c0s) && avg(acc) > 60.0,
               "CP trades extra copies for latency hiding; prefetches are "
               "mostly useful");
  return 0;
}
