// Ablation — width predictor table size sweep. The paper states that 256
// entries "was found to be a good compromise between complexity and
// performance" (Section 3.2); this bench regenerates that tradeoff curve.
// Driven by the exp/ sweep engine ("predictor_size": gcc, gzip, twolf and
// parser x 5 table sizes on 8_8_8+BR+LR+CR).
#include "bench_util.hpp"

using namespace hcsim;
using namespace hcsim::bench;

int main() {
  header("Ablation - width predictor table size",
         "256 entries chosen as the complexity/performance compromise");

  const exp::SweepResult res = run_named_sweep("predictor_size");

  const std::vector<u32> sizes = {16, 64, 256, 1024, 4096};
  std::vector<std::string> variants;
  for (u32 size : sizes) variants.push_back("wpred" + std::to_string(size));
  const auto apps = rows_of(res, variants);
  TextTable t({"entries", "perf+% (avg)", "wp accuracy %", "fatal %"});
  std::vector<double> perf_at;
  for (std::size_t v = 0; v < sizes.size(); ++v) {
    std::vector<double> gains, accs, fatals;
    for (const auto& app : apps) {
      gains.push_back(app[v]->perf_increase_pct());
      accs.push_back(100.0 * app[v]->sim.wp_accuracy());
      fatals.push_back(100.0 * app[v]->sim.fatal_rate());
    }
    perf_at.push_back(avg(gains));
    t.add_row({std::to_string(sizes[v]), TextTable::num(avg(gains), 2),
               TextTable::num(avg(accs), 2), TextTable::num(avg(fatals), 3)});
  }
  std::printf("%s\n", t.render().c_str());
  // Shape: 256 close to the asymptote (within 1.5pp of 4096 entries).
  footer_shape(perf_at[2] + 1.5 >= perf_at.back(),
               "returns saturate around 256 entries — the paper's choice");
  return 0;
}
