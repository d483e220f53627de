// Ablation — block-granularity splitting, the extension the paper proposes
// in the last paragraph of Section 3.7: "a helper cluster that operates
// with a looser granularity: complete blocks of wide instructions are split
// up and sent in their entirety to the narrow cluster, thus minimizing
// copies while decreasing imbalance." Driven by the exp/ sweep engine
// ("ir_block": 12 apps x {+IR, +IR(block)}).
#include "bench_util.hpp"

using namespace hcsim;
using namespace hcsim::bench;

int main() {
  header("Ablation - block-granularity instruction splitting (paper's "
         "proposed extension)",
         "sending whole blocks to the helper should minimize copies while "
         "still reducing imbalance");

  const exp::SweepResult res = run_named_sweep("ir_block");

  TextTable t({"config", "perf+%", "steered%", "copies%", "copies/split",
               "NREADY w2n%"});
  double perf[2] = {0, 0}, steered[2] = {0, 0}, copies[2] = {0, 0};
  double cps[2] = {0, 0}, w2n[2] = {0, 0};
  const auto apps =
      rows_of(res, {"8_8_8+BR+LR+CR+CP+IR", "8_8_8+BR+LR+CR+CP+IR(block)"});
  for (const auto& app : apps) {
    for (int i = 0; i < 2; ++i) {
      const SimResult& r = app[i]->sim;
      perf[i] += app[i]->perf_increase_pct();
      steered[i] += 100.0 * r.helper_frac();
      copies[i] += 100.0 * r.copy_frac();
      cps[i] += r.split_uops ? static_cast<double>(r.copies) /
                                   static_cast<double>(r.split_uops)
                             : 0.0;
      w2n[i] += r.nready_w2n_pct();
    }
  }
  const double n = static_cast<double>(apps.size());
  const char* names[] = {"+IR (4-copy prefetch back)", "+IR(block)"};
  for (int i = 0; i < 2; ++i)
    t.add_row({names[i], TextTable::num(perf[i] / n, 1),
               TextTable::num(steered[i] / n, 1), TextTable::num(copies[i] / n, 1),
               TextTable::num(cps[i] / n, 1), TextTable::num(w2n[i] / n, 1)});
  std::printf("%s\n", t.render().c_str());
  footer_shape(copies[1] < copies[0] && perf[1] > 0.0,
               "block splitting cuts copy traffic relative to per-uop "
               "splitting at comparable performance");
  return 0;
}
