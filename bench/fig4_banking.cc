// Figure 4: PRR banks sending opportunities during an application stall.
// 20 segments are written with segment 1 lost; the application stalls and
// writes 10 more mid-recovery. The catch-up burst is bounded by
// prr_delivered - prr_out (+1 MSS), then sending continues ACK-paced.
#include <cstdio>

#include "bench_common.h"
#include "exp/scenarios.h"

using namespace prr;

int fig4_banking() {
  bench::print_header(
      "Figure 4: PRR banks sending opportunities across an app stall",
      "on catch-up the sender may burst ratio*(prr_delivered - prr_out) "
      "segments (3 in the paper's example), then spreads the rest across "
      "incoming ACKs");

  exp::FigureRun run = exp::run_figure_scenario(
      exp::FigureScenario::fig4(tcp::RecoveryKind::kPrr));
  std::printf("%s\n", run.trace.render_ascii(64).c_str());
  const auto& e = run.recovery_log.events().at(0);
  std::printf(
      "recovery %lld..%lld ms  retransmits=%llu  catch-up burst=%llu "
      "segments (bounded, not the whole backlog)\n",
      (long long)e.start.ms(), (long long)e.end.ms(),
      (unsigned long long)e.retransmits,
      (unsigned long long)e.max_burst_segments);
  std::printf("all data ACKed at %lld ms, timeouts=%llu\n",
              (long long)run.all_acked_at.ms(),
              (unsigned long long)run.metrics.timeouts_total);
  return 0;
}
