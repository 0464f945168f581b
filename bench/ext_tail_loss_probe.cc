// Extension experiment (§8 future work): tail loss probe on the Web
// population. The paper observes that timeouts — mostly in the Open
// state, where tail losses produce no dupacks — make up over 60% of
// short-flow retransmissions, and asks "if and how timeouts can be
// improved in practice, especially for short flows". TLP (the authors'
// follow-up, later RFC 8985) is that answer: compare PRR with and
// without TLP.
#include <cstdio>

#include "bench_common.h"
#include "workload/web_workload.h"

using namespace prr;

int ext_tail_loss_probe() {
  bench::print_header(
      "Extension: tail loss probe (TLP) on the Web population",
      "expected: probes convert a chunk of Open-state timeouts into "
      "fast-recovery repairs, cutting lossy-response latency for short "
      "flows; total retransmissions stay nearly flat");

  workload::WebWorkload pop;
  exp::RunOptions opts;
  opts.connections = 12000;
  opts.seed = 14;
  opts.threads = 0;  // parallel sweep: byte-identical to serial

  std::vector<exp::ArmConfig> arms;
  exp::ArmConfig base = exp::ArmConfig::prr_arm();
  base.name = "PRR";
  arms.push_back(base);
  exp::ArmConfig tlp = base;
  tlp.name = "PRR + TLP";
  tlp.tail_loss_probe = true;
  arms.push_back(tlp);

  auto results = exp::run_arms(pop, arms, opts);
  const auto& b = results[0].metrics;

  util::Table t({"metric", "PRR", "PRR + TLP", "delta"});
  auto row = [&](const char* name, uint64_t v0, uint64_t v1) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%+.1f%%",
                  v0 ? (static_cast<double>(v1) - static_cast<double>(v0)) /
                           static_cast<double>(v0) * 100
                     : 0.0);
    t.add_row({name, std::to_string(v0), std::to_string(v1), buf});
  };
  row("RTO timeouts (total)", b.timeouts_total,
      results[1].metrics.timeouts_total);
  row("  in Open", b.timeouts_in_open, results[1].metrics.timeouts_in_open);
  row("Fast recovery events", b.fast_recovery_events,
      results[1].metrics.fast_recovery_events);
  row("Total retransmissions", b.retransmits_total,
      results[1].metrics.retransmits_total);
  row("TLP probes sent", b.tlp_probes_sent,
      results[1].metrics.tlp_probes_sent);
  std::printf("%s\n", t.to_string().c_str());

  util::Table lat({"latency of lossy responses", "PRR [ms]",
                   "PRR + TLP [ms]", "delta"});
  util::Samples l0 = results[0].latency.latency_ms(
      stats::LatencyTracker::Filter::kWithRetransmit);
  util::Samples l1 = results[1].latency.latency_ms(
      stats::LatencyTracker::Filter::kWithRetransmit);
  for (double q : {50.0, 90.0, 99.0}) {
    const double a = l0.quantile(q / 100.0), c = l1.quantile(q / 100.0);
    char buf[32];
    std::snprintf(buf, sizeof buf, "%+.1f%%", (c - a) / a * 100);
    lat.add_row({"q" + util::Table::fmt(q, 0), util::Table::fmt(a, 0),
                 util::Table::fmt(c, 0), buf});
  }
  {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%+.1f%%",
                  (l1.mean() - l0.mean()) / l0.mean() * 100);
    lat.add_row({"mean", util::Table::fmt(l0.mean(), 0),
                 util::Table::fmt(l1.mean(), 0), buf});
  }
  std::printf("%s\n", lat.to_string().c_str());
  return 0;
}
