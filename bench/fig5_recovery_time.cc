// Figure 5: time spent in recovery, quantiles per recovery algorithm on
// the Web population (3-way with common random numbers).
//
// Paper (ms): at the 25th/50th/75th/90th/95th/99th quantiles PRR's
// recovery time is consistently the shortest (e.g. median 239-251 ms,
// 99th 13.3-14.3 s), primarily because it suffers fewer timeouts during
// recovery.
#include <cstdio>

#include "bench_common.h"
#include "workload/web_workload.h"

using namespace prr;

int fig5_recovery_time() {
  bench::print_header(
      "Figure 5: time spent in recovery (quantiles, ms)",
      "PRR < RFC 3517 < Linux at every quantile; PRR shorter mainly via "
      "fewer timeouts in recovery (paper medians ~239-251 ms)");

  workload::WebWorkload pop;
  exp::RunOptions opts;
  opts.connections = 12000;
  opts.seed = 7;
  opts.threads = 0;  // parallel sweep: byte-identical to serial
  auto results = exp::run_arms(pop, bench::three_way_arms(), opts);

  const std::vector<double> qs = {25, 50, 75, 90, 95, 99};
  util::Table t({"arm", "q25", "q50", "q75", "q90", "q95", "q99",
                 "events", "timeouts in recovery"});
  for (const auto& r : results) {
    util::Samples s = r.recovery_log.recovery_time_ms();
    std::vector<std::string> row =
        bench::quantile_row(r.name, s, qs, 0);
    row.push_back(std::to_string(r.recovery_log.count()));
    row.push_back(std::to_string(r.metrics.timeouts_in_recovery));
    t.add_row(row);
  }
  std::printf("%s\n", t.to_string().c_str());
  std::printf(
      "Expected shape: PRR spends the least time in recovery and has the "
      "fewest recovery timeouts; Linux the most.\n");
  return 0;
}
