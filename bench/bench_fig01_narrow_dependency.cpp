// Figure 1 — percentage of register operands that are narrow (8-bit)
// data-width dependent, per SPEC Int 2000 application; plus the Section 1
// ALU operand-mix statistics (39.4% / 3.3% / 43.5%).
#include "analysis/trace_stats.hpp"
#include "bench_util.hpp"

using namespace hcsim;
using namespace hcsim::bench;

int main() {
  header("Figure 1 - narrow data-width dependent register operands",
         "substantial narrow dependency across SPEC Int 2000, ~65% average");

  TextTable t({"app", "narrow-dependent %", "bar"});
  std::vector<double> vals;
  Ratio one, two_wide, two_narrow;  // Section 1 text: ALU operand mix
  for (const WorkloadProfile& app : spec_int_2000_profiles()) {
    const auto s = narrow_dependency_stats(*acquire_trace(app, default_trace_len()));
    const double pct = s.operands_narrow_dependent.percent();
    vals.push_back(pct);
    t.add_row({app.name, TextTable::num(pct, 1), ascii_bar(pct, 100.0)});
    one.add_n(s.alu_one_narrow.num, s.alu_one_narrow.den);
    two_wide.add_n(s.alu_two_narrow_wide_result.num, s.alu_two_narrow_wide_result.den);
    two_narrow.add_n(s.alu_two_narrow_narrow_result.num,
                     s.alu_two_narrow_narrow_result.den);
  }
  t.add_row({"AVG", TextTable::num(avg(vals), 1), ascii_bar(avg(vals), 100.0)});
  std::printf("%s\n", t.render().c_str());

  std::printf("ALU operand mix (paper: 39.4%% one-narrow, 3.3%% 2-narrow->wide, "
              "43.5%% 2-narrow->narrow):\n");
  std::printf("  one narrow operand          : %.1f%%\n", one.percent());
  std::printf("  two narrow -> wide result   : %.1f%%\n", two_wide.percent());
  std::printf("  two narrow -> narrow result : %.1f%%\n", two_narrow.percent());

  const bool ok = avg(vals) > 30.0 && avg(vals) < 90.0 &&
                  two_narrow.percent() > two_wide.percent();
  footer_shape(ok, "substantial narrow dependency; 2-narrow->narrow dominates "
                   "2-narrow->wide");
  return 0;
}
