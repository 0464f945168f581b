// Table 10: India YouTube bulk-video loss-recovery statistics, 3-way on
// the video population (2.3 MB average transfers, ~860 ms RTT, little
// surplus capacity over the encoding rate).
//
// Paper: network transmit time Linux 87.4 s / RFC 3517 83.3 s / PRR
// 84.8 s; 43-46% of transmit time in loss recovery; retransmission rate
// 5.0/6.6/5.6%; bytes sent in FR 7/12/10%; fast-retransmits lost
// 2.4/16.4/4.8%; slow-start after FR 56/1/0%.
#include <cstdio>

#include "bench_common.h"
#include "workload/video_workload.h"

using namespace prr;

int table10_youtube_bulk() {
  bench::print_header(
      "Table 10: YouTube-India bulk transfers (per-arm averages)",
      "RFC 3517 fastest but loses 16.4% of its fast retransmits (bursts); "
      "PRR ~3% faster than Linux with <5% lost fast retransmits; Linux "
      "slow starts after 56% of recoveries, PRR after 0%");

  workload::VideoWorkload pop;
  exp::RunOptions opts;
  opts.connections = 600;
  opts.seed = 10;
  opts.threads = 0;  // parallel sweep: byte-identical to serial
  opts.per_connection_limit = sim::Time::seconds(600);
  auto results = exp::run_arms(pop, bench::three_way_arms(), opts);

  util::Table t({"metric", "paper (L/R/P)", "Linux", "RFC 3517", "PRR"});
  auto row = [&](const std::string& name, const std::string& paper,
                 auto getter, int precision, bool pct) {
    std::vector<std::string> cells{name, paper};
    for (const auto& r : results) {
      const double v = getter(r);
      cells.push_back(pct ? util::Table::fmt_pct(v, 1)
                          : util::Table::fmt(v, precision));
    }
    t.add_row(cells);
  };

  row("Network transmit time [s/conn]", "87.4 / 83.3 / 84.8",
      [](const exp::ArmResult& r) {
        return r.total_network_transmit_time.seconds_d() /
               static_cast<double>(r.connections_run);
      },
      1, false);
  row("% time in loss recovery", "42.7 / 46.3 / 44.9",
      [](const exp::ArmResult& r) {
        return r.fraction_time_in_loss_recovery();
      },
      1, true);
  row("Retransmission rate", "5.0 / 6.6 / 5.6",
      [](const exp::ArmResult& r) { return r.retransmission_rate(); }, 1,
      true);
  row("% bytes sent in fast recovery", "7 / 12 / 10",
      [](const exp::ArmResult& r) {
        return r.fraction_bytes_in_fast_recovery();
      },
      1, true);
  row("% fast-retransmits lost", "2.4 / 16.4 / 4.8",
      [](const exp::ArmResult& r) {
        return r.fraction_fast_retransmits_lost();
      },
      1, true);
  row("Slow start after fast recovery", "56% / 1% / 0%",
      [](const exp::ArmResult& r) {
        return r.recovery_log.fraction_slow_start_after();
      },
      1, true);
  std::printf("%s\n", t.to_string().c_str());
  std::printf(
      "Expected shape: RFC 3517 delivers fastest but with by far the "
      "highest lost-fast-retransmit rate; PRR close behind without the "
      "bursts; only Linux slow starts after recovery.\n");
  return 0;
}
