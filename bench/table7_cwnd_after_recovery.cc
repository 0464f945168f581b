// Table 7: cwnd after recovery (segments), quantiles per algorithm.
//
// Paper: PRR 10%:2 50%:6 90%:15 99%:35; RFC 3517 slightly below PRR;
// Linux roughly half (median 3) because it exits recovery at pipe+1 —
// for short responses over 50% of Linux recoveries end with cwnd < 3.
#include <cstdio>

#include "bench_common.h"
#include "workload/web_workload.h"

using namespace prr;

int table7_cwnd_after_recovery() {
  bench::print_header(
      "Table 7: cwnd after recovery (segments)",
      "PRR ~= RFC 3517 (exit at ssthresh); Linux about half (pipe+1), "
      "with >50% of events ending below 3 segments");

  workload::WebWorkload pop;
  exp::RunOptions opts;
  opts.connections = 12000;
  opts.seed = 7;
  opts.threads = 0;  // parallel sweep: byte-identical to serial
  opts.collect_episodes = true;
  auto results = exp::run_arms(pop, bench::three_way_arms(), opts);

  const std::vector<double> qs = {10, 25, 50, 75, 90, 95, 99};
  util::Table t({"arm", "q10", "q25", "q50", "q75", "q90", "q95", "q99",
                 "frac < 3 segs"});
  for (const auto& r : results) {
    util::Samples s = r.episodes.finished_log().cwnd_after_exit_segs();
    auto row = bench::quantile_row(r.name, s, qs, 0);
    row.push_back(util::Table::fmt_pct(s.fraction_below(3.0)));
    t.add_row(row);
  }
  std::printf("%s\n", t.to_string().c_str());
  std::printf(
      "Paper row for reference (segments): PRR 2/3/6/9/15/21/35, "
      "RFC 3517 2/3/5/8/14/19/31, Linux 1/2/3/5/9/12/19.\n");
  return 0;
}
