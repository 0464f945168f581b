// Table 5: statistics of pipe - ssthresh at the start of recovery for the
// PRR arm on the Web population. Decides which PRR mode a recovery
// begins in.
//
// Paper: 32% of recovery events start with pipe < ssthresh (slow-start
// part), 13% equal, 45% above (proportional part); quantiles from -338
// (min) through +1 (median) to +144 segments (max).
#include <cstdio>

#include "bench_common.h"
#include "workload/web_workload.h"

using namespace prr;

int table5_pipe_vs_ssthresh() {
  bench::print_header(
      "Table 5: pipe - ssthresh at the start of recovery (PRR arm)",
      "32% start below ssthresh (slow start part), 13% equal, 45% above "
      "(proportional part); median +1 segment");

  workload::WebWorkload pop;
  exp::RunOptions opts;
  opts.connections = 12000;
  opts.seed = 5;
  opts.threads = 0;  // parallel sweep: byte-identical to serial
  opts.collect_episodes = true;
  exp::ArmResult r = exp::run_arm(pop, exp::ArmConfig::prr_arm(), opts);
  const stats::RecoveryLog log = r.episodes.finished_log();

  const double below = log.fraction_start_below_ssthresh();
  const double equal = log.fraction_start_equal_ssthresh();
  const double above = log.fraction_start_above_ssthresh();
  util::Table modes({"mode at entry", "paper", "measured"});
  modes.add_row({"pipe < ssthresh  [slow start part]", "32%",
                 util::Table::fmt_pct(below)});
  modes.add_row({"pipe == ssthresh", "13%", util::Table::fmt_pct(equal)});
  modes.add_row({"pipe > ssthresh  [proportional part]", "45%",
                 util::Table::fmt_pct(above)});
  std::printf("recovery events: %zu\n%s\n", log.count(),
              modes.to_string().c_str());

  util::Samples s = log.pipe_minus_ssthresh_segs();
  util::Table q({"quantile", "paper [segs]", "measured [segs]"});
  const char* paper_vals[] = {"-338 (min)", "-10", "+1", "+11",
                              "+144 (max)"};
  const double qs[] = {0.0, 0.01, 0.50, 0.99, 1.0};
  for (int i = 0; i < 5; ++i) {
    q.add_row({i == 0   ? "min"
               : i == 4 ? "max"
                        : util::Table::fmt(qs[i] * 100, 0) + "%",
               paper_vals[i], util::Table::fmt(s.quantile(qs[i]), 0)});
  }
  std::printf("%s\n", q.to_string().c_str());
  return 0;
}
