// Table 1: global TCP/HTTP summary of the Web population (paper: sampled
// from Google Web servers for one week in May 2011). Checks that the
// synthetic population matches the paper's aggregates: ~3.1 requests per
// connection, ~7.5 kB mean response, ~2.8% segment retransmission rate,
// ~6.1% of responses with retransmissions.
#include <cstdio>

#include "bench_common.h"
#include "workload/web_workload.h"

using namespace prr;

int table1_summary() {
  bench::print_header(
      "Table 1: Summary of TCP and HTTP statistics (Web population)",
      "avg 3.1 requests/conn; avg response 7.5 kB; avg retransmission "
      "rate 2.8%; 6.1% of responses with TCP retransmissions");

  workload::WebWorkload pop;
  exp::RunOptions opts;
  opts.connections = 3000;
  opts.seed = 20110501;
  opts.threads = 0;  // parallel sweep: byte-identical to serial

  exp::ArmResult r = exp::run_arm(pop, exp::ArmConfig::linux_arm(), opts);

  double total_requests = 0, total_bytes = 0, completed = 0;
  for (const auto& resp : r.latency.responses()) {
    if (!resp.completed()) continue;
    ++completed;
    total_bytes += static_cast<double>(resp.bytes());
  }
  total_requests = completed;

  util::Table t({"metric", "paper", "measured"});
  t.add_row({"connections", "billions (sampled)",
             std::to_string(r.connections_run)});
  t.add_row({"avg requests per connection", "3.1",
             util::Table::fmt(total_requests /
                                  static_cast<double>(r.connections_run),
                              2)});
  t.add_row({"avg response size [kB]", "7.5",
             util::Table::fmt(total_bytes / completed / 1000.0, 2)});
  t.add_row({"avg retransmission rate", "2.8%",
             util::Table::fmt_pct(r.retransmission_rate())});
  t.add_row({"responses with retransmissions", "6.1%",
             util::Table::fmt_pct(r.latency.fraction_with_retransmit())});
  t.add_row({"connections aborted (user gone)", "-",
             util::Table::fmt_pct(
                 static_cast<double>(r.metrics.connections_aborted) /
                 static_cast<double>(r.connections_run))});
  std::printf("%s\n", t.to_string().c_str());
  return 0;
}
