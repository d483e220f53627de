// Figure 13 — average producer-consumer distance in dynamic instructions.
#include "analysis/trace_stats.hpp"
#include "bench_util.hpp"

using namespace hcsim;
using namespace hcsim::bench;

int main() {
  header("Figure 13 - average producer-consumer distance (IA-32)",
         "distances of ~2-6 instructions: good for copy prefetching (CP)");

  TextTable t({"app", "distance (uops)", "p90"});
  std::vector<double> means;
  for (const WorkloadProfile& app : spec_int_2000_profiles()) {
    const DistanceStats s =
        producer_consumer_distance(*acquire_trace(app, default_trace_len()));
    means.push_back(s.mean());
    t.add_row({app.name, TextTable::num(s.mean(), 2),
               std::to_string(s.distance.quantile(0.9))});
  }
  t.add_row({"AVG", TextTable::num(avg(means), 2), ""});
  std::printf("%s\n", t.render().c_str());
  footer_shape(avg(means) > 1.5 && avg(means) < 8.0,
               "short distances: prefetched copies arrive just in time, "
               "without long queue residence");
  return 0;
}
