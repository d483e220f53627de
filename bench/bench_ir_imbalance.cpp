// Section 3.7 — Instruction Splitting for Imbalance Reduction (IR):
// NREADY imbalance before/after, steered fraction, copies, performance, and
// the no-destination fine-tuned variant. Reads the +BR+LR, +CP, +IR and
// +IR(nodest) rungs of the "cumulative" sweep.
#include "bench_util.hpp"

using namespace hcsim;
using namespace hcsim::bench;

int main() {
  header("Section 3.7 - IR: instruction splitting for imbalance reduction",
         "pre-IR imbalance: ~22% wide-to-narrow vs ~2% narrow-to-wide. "
         "IR: +22.1% perf, 72.4% steered, imbalance -> 2.3%. "
         "IR(nodest): +21.3%, 63.6% steered, copies 36.9% -> 24.4%");

  const exp::SweepResult res = run_named_sweep("cumulative");

  const std::vector<std::string> configs = {"8_8_8+BR+LR", "8_8_8+BR+LR+CR+CP",
                                            "8_8_8+BR+LR+CR+CP+IR",
                                            "8_8_8+BR+LR+CR+CP+IR(nodest)"};
  struct Row {
    double perf = 0, steered = 0, copies = 0, w2n = 0, n2w = 0, splits = 0;
  };
  std::vector<Row> rows(configs.size());
  const auto apps = rows_of(res, configs);
  for (const auto& app : apps) {
    for (std::size_t i = 0; i < configs.size(); ++i) {
      const SimResult& r = app[i]->sim;
      rows[i].perf += app[i]->perf_increase_pct();
      rows[i].steered += 100.0 * r.helper_frac();
      rows[i].copies += 100.0 * r.copy_frac();
      rows[i].w2n += r.nready_w2n_pct();
      rows[i].n2w += r.nready_n2w_pct();
      rows[i].splits += static_cast<double>(r.split_uops);
    }
  }
  const double n = static_cast<double>(apps.size());
  TextTable t({"config", "perf+%", "steered%", "copies%", "NREADY w2n%",
               "NREADY n2w%", "splits/app"});
  const char* names[] = {"8_8_8+BR+LR", "pre-IR (CP)", "+IR", "+IR(nodest)"};
  for (std::size_t i = 0; i < configs.size(); ++i)
    t.add_row({names[i], TextTable::num(rows[i].perf / n, 1),
               TextTable::num(rows[i].steered / n, 1),
               TextTable::num(rows[i].copies / n, 1),
               TextTable::num(rows[i].w2n / n, 1), TextTable::num(rows[i].n2w / n, 1),
               TextTable::num(rows[i].splits / n, 0)});
  std::printf("%s\n", t.render().c_str());
  std::printf("note: in this implementation CR already drains most of the\n"
              "wide-to-narrow imbalance, so IR's incremental headroom is\n"
              "smaller than the paper's (see README, \"Paper claims\").\n");

  const bool shape = rows[0].w2n > 3.0 * rows[0].n2w &&  // helper underutilized pre-CR
                     rows[2].w2n < rows[1].w2n &&        // IR reduces w2n imbalance
                     rows[3].copies < rows[2].copies &&  // nodest cuts copies
                     rows[2].steered >= rows[1].steered && // IR raises occupancy
                     rows[2].splits > 0;
  footer_shape(shape,
               "wide-to-narrow imbalance dominates while the helper is "
               "underutilized; splitting raises occupancy and reduces it; the "
               "nodest variant trades steering for fewer copies");
  return 0;
}
