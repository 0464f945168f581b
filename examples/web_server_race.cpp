// Web-server race: serve the same sequence of HTTP responses over the
// same lossy path with each fast-recovery algorithm and compare
// per-response TCP latency — a miniature of the paper's §5 experiment.
//
// Usage: web_server_race [connections] [seed]
// Exits 2 on a value that is not a whole integer (connections >= 1).
#include <cstdio>

#include "exp/experiment.h"
#include "util/parse_number.h"
#include "util/table.h"
#include "workload/web_workload.h"

using namespace prr;

int main(int argc, char** argv) {
  int connections = 4000;
  uint64_t seed = 99;
  if (argc > 3 ||
      (argc > 1 &&
       !util::parse_flag("connections", argv[1], connections, 1)) ||
      (argc > 2 && !util::parse_flag("seed", argv[2], seed))) {
    std::fprintf(stderr, "usage: web_server_race [connections] [seed]\n");
    return 2;
  }

  std::printf("Racing Linux rate-halving vs RFC 3517 vs PRR over %d "
              "identical Web connections (seed %llu)...\n\n",
              connections, (unsigned long long)seed);

  workload::WebWorkload pop;
  exp::RunOptions opts;
  opts.connections = connections;
  opts.seed = seed;
  opts.threads = 0;  // parallel sweep: byte-identical to serial
  auto results = exp::run_arms(
      pop,
      {exp::ArmConfig::linux_arm(), exp::ArmConfig::rfc3517_arm(),
       exp::ArmConfig::prr_arm()},
      opts);

  util::Table t({"arm", "lossy median [ms]", "lossy mean [ms]",
                 "overall mean [ms]", "timeouts", "fast recoveries",
                 "retransmission rate"});
  for (const auto& r : results) {
    util::Samples lossy = r.latency.latency_ms(
        stats::LatencyTracker::Filter::kWithRetransmit);
    util::Samples all = r.latency.latency_ms();
    t.add_row({r.name, util::Table::fmt(lossy.quantile(0.5), 0),
               util::Table::fmt(lossy.mean(), 0),
               util::Table::fmt(all.mean(), 0),
               std::to_string(r.metrics.timeouts_total),
               std::to_string(r.metrics.fast_recovery_events),
               util::Table::fmt_pct(r.retransmission_rate())});
  }
  std::printf("%s\n", t.to_string().c_str());

  const double linux_mean =
      results[0]
          .latency.latency_ms(stats::LatencyTracker::Filter::kWithRetransmit)
          .mean();
  const double prr_mean =
      results[2]
          .latency.latency_ms(stats::LatencyTracker::Filter::kWithRetransmit)
          .mean();
  std::printf("PRR vs Linux on lossy responses: %+.1f%% (paper: -3%% to "
              "-10%%)\n",
              (prr_mean - linux_mean) / linux_mean * 100);
  return 0;
}
