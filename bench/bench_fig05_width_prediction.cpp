// Figure 5 — width prediction accuracy per app (correct / non-fatal /
// fatal), and the Section 3.2 confidence-estimator claim: fatal
// mispredictions drop from 2.11% to 0.83% with the 2-bit estimator.
// Driven by the exp/ sweep engine ("fig05": 12 apps x {8_8_8, 8_8_8
// without the confidence estimator}).
#include "bench_util.hpp"

using namespace hcsim;
using namespace hcsim::bench;

int main() {
  header("Figure 5 - width prediction accuracy (8-8-8 machine)",
         "~93.5% correct on average; fatal mispredictions need recovery");

  const exp::SweepResult res = run_named_sweep("fig05");

  TextTable t({"app", "correct%", "non-fatal%", "fatal%"});
  std::vector<double> correct, fatal, fatal_on, fatal_off;
  for (const auto& row : rows_of(res, {"8_8_8", "8_8_8-noconf"})) {
    const SimResult& r = row[0]->sim;
    const double tot = static_cast<double>(r.wp_correct + r.wp_nonfatal + r.wp_fatal);
    const double c = 100.0 * static_cast<double>(r.wp_correct) / tot;
    const double nf = 100.0 * static_cast<double>(r.wp_nonfatal) / tot;
    const double f = 100.0 * static_cast<double>(r.wp_fatal) / tot;
    correct.push_back(c);
    fatal.push_back(f);
    fatal_on.push_back(100.0 * r.fatal_rate());
    fatal_off.push_back(100.0 * row[1]->sim.fatal_rate());
    t.add_row({row[0]->point.profile.name, TextTable::num(c, 2), TextTable::num(nf, 2),
               TextTable::num(f, 2)});
  }
  t.add_row({"AVG", TextTable::num(avg(correct), 2), "", TextTable::num(avg(fatal), 2)});
  std::printf("%s\n", t.render().c_str());

  // Confidence estimator ablation (Section 3.2: 2.11% -> 0.83%).
  std::printf("fatal misprediction rate without confidence estimator: %.2f%%\n",
              avg(fatal_off));
  std::printf("fatal misprediction rate with    confidence estimator: %.2f%%\n",
              avg(fatal_on));
  std::printf("(paper: 2.11%% -> 0.83%%)\n");

  footer_shape(avg(correct) > 85.0 && avg(fatal_on) < avg(fatal_off),
               "high accuracy; confidence estimator reduces fatal mispredictions");
  return 0;
}
