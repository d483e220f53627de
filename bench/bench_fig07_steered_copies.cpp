// Figure 7 — percentage of instructions steered to the helper cluster and
// of inter-cluster copies under the 8-8-8 scheme (paper: 15% steered).
// Reads the "fig06" sweep's points (12 apps x {8_8_8}).
#include "bench_util.hpp"

using namespace hcsim;
using namespace hcsim::bench;

int main() {
  header("Figure 7 - helper-cluster instructions and copies (8_8_8)",
         "15% of instructions steered on average; sizable copy percentage "
         "because narrow values feed wide addressing/indexing");

  const exp::SweepResult res = run_named_sweep("fig06");

  TextTable t({"app", "helper instr %", "copy instr %"});
  std::vector<double> steered, copies;
  for (const exp::PointResult& pr : res.points) {
    const double s = 100.0 * pr.sim.helper_frac();
    const double c = 100.0 * pr.sim.copy_frac();
    steered.push_back(s);
    copies.push_back(c);
    t.add_row({pr.point.profile.name, TextTable::num(s, 1), TextTable::num(c, 1)});
  }
  t.add_row({"AVG", TextTable::num(avg(steered), 1), TextTable::num(avg(copies), 1)});
  std::printf("%s\n", t.render().c_str());
  footer_shape(avg(steered) > 5.0 && avg(steered) < 45.0 && avg(copies) > 5.0,
               "minority of instructions steered under pure 8-8-8, with "
               "substantial copy traffic");
  return 0;
}
