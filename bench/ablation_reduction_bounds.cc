// Ablation (§4 footnote 3, IETF draft): the three PRR reduction-bound
// variants. PRR-CRB is strictly packet-conserving (can be slow to rebuild
// pipe -> more timeouts), PRR-UB rebuilds pipe in one burst (RFC
// 3517-like aggressiveness -> more lost retransmits), and PRR-SSRB (the
// paper's "PRR") sits between them — "the best combination of features".
#include <cstdio>

#include "bench_common.h"
#include "exp/scenarios.h"
#include "workload/web_workload.h"

using namespace prr;

int ablation_reduction_bounds() {
  bench::print_header(
      "Ablation: PRR reduction bounds (SSRB vs CRB vs UB)",
      "SSRB chosen for shipping: CRB is too conservative under heavy "
      "loss, UB bursts like RFC 3517");

  // Part 1: deterministic catastrophic-loss scenario: segments 1-16 of
  // 20 dropped. The very first SACK reveals a 16-segment hole, pipe
  // collapses far below ssthresh, and the reduction bound alone decides
  // how fast the hole is refilled.
  std::printf("-- catastrophic loss (segments 1-16 of 20 dropped) --\n");
  util::Table fig({"variant", "retransmits", "timeouts",
                   "max per-ACK burst", "recovery ends [ms]"});
  for (auto [name, bound] :
       {std::pair{"PRR-SSRB", core::ReductionBound::kSlowStart},
        std::pair{"PRR-CRB", core::ReductionBound::kConservative},
        std::pair{"PRR-UB", core::ReductionBound::kUnlimited}}) {
    exp::FigureScenario s =
        exp::FigureScenario::fig3(tcp::RecoveryKind::kPrr);
    s.original_drops = {1, 2, 3, 4, 5, 6, 7, 8,
                        9, 10, 11, 12, 13, 14, 15, 16};
    s.prr_bound = bound;
    exp::FigureRun run = exp::run_figure_scenario(s);
    uint64_t max_burst = 0;
    sim::Time end;
    for (const auto& e : run.recovery_log.events()) {
      max_burst = std::max(max_burst, e.max_burst_segments);
      end = e.end;
    }
    fig.add_row({name, std::to_string(run.metrics.retransmits_total),
                 std::to_string(run.metrics.timeouts_total),
                 std::to_string(max_burst), std::to_string(end.ms())});
  }
  std::printf("%s\n", fig.to_string().c_str());

  // Part 2: Web population with heavier losses so the bounded mode runs
  // often.
  workload::WebWorkloadParams p;
  p.clean_path_fraction = 0.4;
  p.lossy_p_good_to_bad = 0.015;
  workload::WebWorkload pop(p);
  exp::RunOptions opts;
  opts.connections = 8000;
  opts.seed = 21;
  opts.threads = 0;  // parallel sweep: byte-identical to serial

  std::vector<exp::ArmConfig> arms;
  for (auto [name, bound] :
       {std::pair{"PRR-SSRB", core::ReductionBound::kSlowStart},
        std::pair{"PRR-CRB", core::ReductionBound::kConservative},
        std::pair{"PRR-UB", core::ReductionBound::kUnlimited}}) {
    exp::ArmConfig a = exp::ArmConfig::prr_arm();
    a.name = name;
    a.prr_bound = bound;
    arms.push_back(a);
  }
  auto results = exp::run_arms(pop, arms, opts);

  util::Table t({"variant", "timeouts in recovery", "lost fast retx rate",
                 "max burst q99 [segs]", "lossy-response latency q50 [ms]",
                 "mean [ms]"});
  for (const auto& r : results) {
    util::Samples bursts = r.recovery_log.burst_sizes();
    util::Samples lat = r.latency.latency_ms(
        stats::LatencyTracker::Filter::kWithRetransmit);
    t.add_row({r.name, std::to_string(r.metrics.timeouts_in_recovery),
               util::Table::fmt_pct(r.fraction_fast_retransmits_lost()),
               util::Table::fmt(bursts.quantile(0.99), 0),
               util::Table::fmt(lat.quantile(0.5), 0),
               util::Table::fmt(lat.mean(), 0)});
  }
  std::printf("-- Web population, heavy-loss mix --\n%s\n",
              t.to_string().c_str());
  std::printf(
      "Expected shape: CRB -> most recovery timeouts (slowest rebuild); "
      "UB -> largest bursts and most lost fast retransmits; SSRB "
      "balances both.\n");
  return 0;
}
