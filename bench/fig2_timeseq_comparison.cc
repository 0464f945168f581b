// Figure 2: time-sequence comparison of PRR (top), Linux rate-halving
// (middle) and RFC 3517 (bottom) on the paper's testbed — 100 ms RTT,
// 1.2 Mbps, MSS 1000; the server writes 20 kB at t=0 and 10 kB at
// t=500 ms; the first four segments are dropped.
//
// Expected shapes (paper §4.1):
//   PRR      : one retransmission every other ACK; recovery completes
//              ~460 ms with cwnd = ssthresh = 10, so the second write is
//              delivered in one RTT.
//   Linux    : similar retransmit timing, but recovery ends with
//              cwnd = pipe + 1, so the second write slow starts (~4 RTTs).
//   RFC 3517 : first retransmit immediately, then a half-RTT silence
//              until pipe falls below cwnd.
#include <cstdio>

#include "bench_common.h"
#include "exp/scenarios.h"

using namespace prr;

namespace {

void run_and_print(const char* label, tcp::RecoveryKind kind) {
  exp::FigureRun run =
      exp::run_figure_scenario(exp::FigureScenario::fig2(kind));
  std::printf("---- %s ----\n", label);
  std::printf("%s\n", run.trace.render_ascii(64).c_str());
  const auto& e = run.recovery_log.events().empty()
                      ? stats::RecoveryEvent{}
                      : run.recovery_log.events().front();
  std::printf(
      "recovery: %lld..%lld ms  ssthresh=%.0f segs  cwnd after exit=%.0f "
      "segs  retransmits=%llu\n",
      (long long)e.start.ms(), (long long)e.end.ms(),
      (double)e.ssthresh / 1000.0, e.cwnd_after_exit_segs(),
      (unsigned long long)e.retransmits);
  std::printf("second write (10 kB at 500 ms) fully ACKed at %lld ms\n\n",
              (long long)run.all_acked_at.ms());
}

}  // namespace

int fig2_timeseq_comparison() {
  bench::print_header(
      "Figure 2: PRR vs Linux fast recovery vs RFC 3517 time-sequence",
      "PRR finishes recovery at ~460 ms with cwnd=ssthresh=10 and sends "
      "the next 10 segments in one RTT; Linux ends recovery at cwnd=pipe+1 "
      "and takes ~4 RTTs to slow start the next response; RFC 3517 shows "
      "a half-RTT silence after the first fast retransmit.");
  run_and_print("PRR", tcp::RecoveryKind::kPrr);
  run_and_print("Linux rate halving", tcp::RecoveryKind::kLinuxRateHalving);
  run_and_print("RFC 3517", tcp::RecoveryKind::kRfc3517);
  return 0;
}
