// Figure 3: PRR under heavy losses (segments 1-4 and 11-16 dropped).
// After the first cluster pipe > ssthresh and the proportional part sends
// on alternate ACKs; the second cluster pushes pipe below ssthresh and
// the slow-start part transmits (up to) two segments per ACK, avoiding
// both a timeout and an RFC 3517-style burst.
#include <cstdio>

#include "bench_common.h"
#include "exp/scenarios.h"

using namespace prr;

int fig3_heavy_loss() {
  bench::print_header(
      "Figure 3: PRR under heavy losses (drop segments 1-4 and 11-16)",
      "proportional part on alternate ACKs, then slow-start part at two "
      "segments per ACK once pipe < ssthresh; no timeout");

  for (auto [name, kind] :
       {std::pair{"PRR", tcp::RecoveryKind::kPrr},
        std::pair{"Linux rate halving", tcp::RecoveryKind::kLinuxRateHalving},
        std::pair{"RFC 3517", tcp::RecoveryKind::kRfc3517}}) {
    exp::FigureRun run =
        exp::run_figure_scenario(exp::FigureScenario::fig3(kind));
    std::printf("---- %s ----\n", name);
    std::printf("%s\n", run.trace.render_ascii(64).c_str());
    const auto& events = run.recovery_log.events();
    uint64_t max_burst = 0;
    for (const auto& e : events)
      max_burst = std::max(max_burst, e.max_burst_segments);
    std::printf(
        "retransmits=%llu  timeouts=%llu  max per-ACK burst in recovery="
        "%llu segs  all data ACKed at %lld ms\n\n",
        (unsigned long long)run.metrics.retransmits_total,
        (unsigned long long)run.metrics.timeouts_total,
        (unsigned long long)max_burst, (long long)run.all_acked_at.ms());
  }
  return 0;
}
