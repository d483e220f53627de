// Figure 9 — minimization of copy percentage due to Load Replication.
// Reads the 8_8_8, +BR and +BR+LR rungs of the "cumulative" sweep.
#include "bench_util.hpp"

using namespace hcsim;
using namespace hcsim::bench;

int main() {
  header("Figure 9 - copy percentage: 8_8_8 / +BR / +BR+LR",
         "LR (8-bit loads allocate registers in both clusters via the shared "
         "MOB) decreases copies from 10.8% to 6.4%");

  const exp::SweepResult res = run_named_sweep("cumulative");

  TextTable t({"app", "8_8_8", "+BR", "+BR+LR"});
  std::vector<double> c0s, c1s, c2s;
  for (const auto& row : rows_of(res, {"8_8_8", "8_8_8+BR", "8_8_8+BR+LR"})) {
    const double c0 = 100.0 * row[0]->sim.copy_frac();
    const double c1 = 100.0 * row[1]->sim.copy_frac();
    const double c2 = 100.0 * row[2]->sim.copy_frac();
    c0s.push_back(c0);
    c1s.push_back(c1);
    c2s.push_back(c2);
    t.add_row({row[0]->point.profile.name, TextTable::num(c0, 1), TextTable::num(c1, 1),
               TextTable::num(c2, 1)});
  }
  t.add_row({"AVG", TextTable::num(avg(c0s), 1), TextTable::num(avg(c1s), 1),
             TextTable::num(avg(c2s), 1)});
  std::printf("%s\n", t.render().c_str());
  footer_shape(avg(c2s) < avg(c1s) && avg(c1s) < avg(c0s),
               "copies fall monotonically: 8_8_8 > +BR > +BR+LR");
  return 0;
}
