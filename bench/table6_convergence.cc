// Table 6: cwnd - ssthresh just prior to exiting recovery for the PRR
// arm. The paper's convergence claim: in ~90% of recovery events PRR's
// window has converged to exactly ssthresh by the end of recovery; the
// rest were too lossy for slow start to rebuild pipe in time.
//
// Paper quantiles (segments): 5%: -8, 10%: -3, 25%..99%: 0.
#include <cstdio>

#include "bench_common.h"
#include "workload/web_workload.h"

using namespace prr;

int table6_convergence() {
  bench::print_header(
      "Table 6: cwnd - ssthresh just prior to exiting recovery (PRR)",
      "~90% of recoveries converge to exactly ssthresh; the tail is "
      "heavy-loss events where pipe could not be rebuilt");

  workload::WebWorkload pop;
  exp::RunOptions opts;
  opts.connections = 12000;
  opts.seed = 5;
  opts.threads = 0;  // parallel sweep: byte-identical to serial
  opts.collect_episodes = true;
  exp::ArmResult r = exp::run_arm(pop, exp::ArmConfig::prr_arm(), opts);
  util::Samples s =
      r.episodes.finished_log().cwnd_minus_ssthresh_exit_segs();

  util::Table t({"quantile [%]", "paper [segs]", "measured [segs]"});
  const char* paper[] = {"-8", "-3", "0", "0", "0", "0", "0", "0"};
  const double qs[] = {5, 10, 25, 50, 75, 90, 95, 99};
  for (int i = 0; i < 8; ++i) {
    t.add_row({util::Table::fmt(qs[i], 0), paper[i],
               util::Table::fmt(s.quantile(qs[i] / 100.0), 0)});
  }
  std::printf("completed recovery events: %zu\n%s\n", s.count(),
              t.to_string().c_str());
  std::printf("fraction converged to >= ssthresh: %s (paper ~90%%)\n",
              util::Table::fmt_pct(1.0 - s.fraction_below(0.0)).c_str());
  return 0;
}
