// hcsim example: sweep every steering configuration of the paper across the
// SPEC Int 2000 suite and print the per-scheme summary that Section 3
// walks through (steered%, copies%, performance increase).
#include <cstdio>
#include <vector>

#include "exp/runner.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

using namespace hcsim;

int main() {
  // The cumulative ladder (8_8_8 ... +IR(nodest)) plus block splitting, on
  // every hardware thread.
  exp::SweepSpec sweep = *exp::find_sweep("cumulative");
  sweep.variants.push_back(exp::variant_from_steering(steering_ir_block()));
  exp::RunOptions opts;
  opts.threads = 0;
  const exp::SweepResult res = exp::run_sweep(sweep, opts);

  TextTable table({"scheme", "steered%", "copies%", "perf+%", "fatal%", "w2n-nready%",
                   "n2w-nready%"});
  for (u32 v = 0; v < sweep.variants.size(); ++v) {
    double steered = 0, copies = 0, fatal = 0, w2n = 0, n2w = 0;
    std::vector<double> speedups;
    for (const exp::PointResult& r : res.points) {
      if (r.point.variant_idx != v) continue;
      steered += 100.0 * r.sim.helper_frac();
      copies += 100.0 * r.sim.copy_frac();
      fatal += 100.0 * r.sim.fatal_rate();
      w2n += r.sim.nready_w2n_pct();
      n2w += r.sim.nready_n2w_pct();
      speedups.push_back(r.speedup());
    }
    const double n = static_cast<double>(speedups.size());
    table.add_row({sweep.variants[v].name, TextTable::num(steered / n, 1),
                   TextTable::num(copies / n, 1),
                   TextTable::num((geomean(speedups) - 1.0) * 100.0, 1),
                   TextTable::num(fatal / n, 2), TextTable::num(w2n / n, 1),
                   TextTable::num(n2w / n, 1)});
  }
  std::printf("%s", table.render().c_str());

  // Per-app detail for the full IR configuration.
  std::printf("\nPer-app detail, +IR configuration:\n");
  TextTable detail({"app", "base IPC", "helper IPC", "perf+%", "steered%", "copies%"});
  for (const exp::PointResult& r : res.points) {
    if (r.point.variant.name != "8_8_8+BR+LR+CR+CP+IR") continue;
    detail.add_row({r.point.profile.name, TextTable::num(r.baseline.ipc, 3),
                    TextTable::num(r.sim.ipc, 3),
                    TextTable::num(r.perf_increase_pct(), 1),
                    TextTable::num(100.0 * r.sim.helper_frac(), 1),
                    TextTable::num(100.0 * r.sim.copy_frac(), 1)});
  }
  std::printf("%s", detail.render().c_str());
  return 0;
}
