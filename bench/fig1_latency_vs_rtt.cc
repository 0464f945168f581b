// Figure 1: (top) average TCP latency of 4-8 kB responses by 200 ms RTT
// bucket, split into responses with and without retransmissions, against
// the ideal (one RTT); (bottom) CDF of the number of round trips taken by
// responses with and without retransmissions.
//
// Paper shapes: responses with losses take ~7-10x the ideal; the latency
// spread for lossy responses is tens of RTTs while loss-free responses
// sit within a few RTTs of ideal.
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "util/quantiles.h"
#include "workload/web_workload.h"

using namespace prr;

int fig1_latency_vs_rtt() {
  bench::print_header(
      "Figure 1: TCP latency of 4-8 kB responses by RTT bucket",
      "responses with retransmits last 7-10x the ideal; CDF spread for "
      "lossy responses ~10x wider (tens to ~200 RTTs)");

  workload::WebWorkloadParams params;
  // Spread RTTs wider so every bucket of the paper's plot is populated.
  params.mean_rtt_ms = 220;
  params.rtt_sigma = 1.0;
  workload::WebWorkload pop(params);
  exp::RunOptions opts;
  opts.connections = 20000;
  opts.seed = 101;
  opts.threads = 0;  // parallel sweep: byte-identical to serial

  exp::ArmResult r = exp::run_arm(pop, exp::ArmConfig::linux_arm(), opts);

  struct Bucket {
    util::Samples with_retx, without_retx, ideal;
  };
  std::vector<Bucket> buckets(5);  // 0-200, ..., 800-1000 ms

  for (const auto& resp : r.latency.responses()) {
    if (!resp.completed()) continue;
    if (resp.bytes() < 4000 || resp.bytes() > 8000) continue;
    int b = static_cast<int>(resp.path_rtt_ms() / 200.0);
    if (b < 0) b = 0;
    if (b > 4) continue;
    (resp.had_retransmit() ? buckets[b].with_retx
                           : buckets[b].without_retx)
        .add(resp.latency_ms());
    buckets[b].ideal.add(resp.path_rtt_ms());
  }

  util::Table t({"RTT bucket [ms]", "avg w/ retx [ms]", "avg w/o retx [ms]",
                 "ideal [ms]", "w/ retx : ideal", "n(w/)", "n(w/o)"});
  for (int b = 0; b < 5; ++b) {
    const auto& bk = buckets[b];
    const double ideal = bk.ideal.mean();
    t.add_row({std::to_string(b * 200) + "-" + std::to_string(b * 200 + 200),
               util::Table::fmt(bk.with_retx.mean(), 0),
               util::Table::fmt(bk.without_retx.mean(), 0),
               util::Table::fmt(ideal, 0),
               ideal > 0 ? util::Table::fmt(bk.with_retx.mean() / ideal, 1)
                         : "-",
               std::to_string(bk.with_retx.count()),
               std::to_string(bk.without_retx.count())});
  }
  std::printf("%s\n", t.to_string().c_str());

  // Bottom plot: CDF of round trips taken, all response sizes.
  util::Samples rtts_with =
      r.latency.rtts_taken(stats::LatencyTracker::Filter::kWithRetransmit);
  util::Samples rtts_without =
      r.latency.rtts_taken(stats::LatencyTracker::Filter::kWithoutRetransmit);
  util::Table cdf({"CDF point", "# RTTs w/ retx", "# RTTs w/o retx"});
  for (double q : {0.10, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99}) {
    cdf.add_row({util::Table::fmt(q, 2),
                 util::Table::fmt(rtts_with.quantile(q), 1),
                 util::Table::fmt(rtts_without.quantile(q), 1)});
  }
  std::printf("%s", cdf.to_string().c_str());
  std::printf(
      "\nPaper: lossy responses spread out to ~200 RTTs at the tail; "
      "loss-free responses stay within a few RTTs of ideal.\n");
  return 0;
}
