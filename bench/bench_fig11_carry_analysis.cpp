// Figure 11 — for µops with one 8-bit and one 32-bit source and a 32-bit
// output, the percentage whose carry does not propagate past the low byte,
// split into loads (address generation) and additive arithmetic.
#include "analysis/trace_stats.hpp"
#include "bench_util.hpp"

using namespace hcsim;
using namespace hcsim::bench;

int main() {
  header("Figure 11 - carry-not-propagated percentage (8+32->32 pattern)",
         "substantial confinement for both loads and arithmetic: the CR "
         "opportunity");

  TextTable t({"app", "arith %", "load %"});
  std::vector<double> arith, load;
  for (const WorkloadProfile& app : spec_int_2000_profiles()) {
    const CarryStats s = carry_stats(*acquire_trace(app, default_trace_len()));
    arith.push_back(s.arith_confined.percent());
    load.push_back(s.load_confined.percent());
    t.add_row({app.name, TextTable::num(s.arith_confined.percent(), 1),
               TextTable::num(s.load_confined.percent(), 1)});
  }
  t.add_row({"AVG", TextTable::num(avg(arith), 1), TextTable::num(avg(load), 1)});
  std::printf("%s\n", t.render().c_str());
  footer_shape(avg(load) > 30.0 && avg(arith) > 20.0,
               "carry confinement is common enough to make CR worthwhile");
  return 0;
}
