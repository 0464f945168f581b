// Table 11 and §6.1: the 4-way early-retransmit experiment on a
// short-response Web population with real Internet-style reordering:
// baseline (no ER), naive ER, ER + reordering mitigation (M1), and ER +
// both mitigations (M1 + delayed-retransmit timer, M2).
//
// Paper: naive ER raises fast retransmits 31% for a 2% timeout cut, with
// a 27% jump in undo (spurious) events. ER with both mitigations cuts
// timeouts-in-Disorder by 34% with only ~6% of early retransmits
// spurious, leaving total retransmissions ~flat (+1%) and reducing lossy
// short-response latency up to ~8.5%.
#include <cstdio>

#include "bench_common.h"
#include "workload/web_workload.h"

using namespace prr;

int table11_early_retransmit() {
  bench::print_header(
      "Table 11 / §6.1: early retransmit 4-way",
      "naive ER: fast retx +31%, undo +27%; ER+M1+M2: timeouts in "
      "Disorder -34%, ~6% spurious, latency of short lossy responses "
      "down up to 8.5%");

  // Short responses (tail losses dominate) on paths with enough
  // reordering to punish a naive ER.
  workload::WebWorkloadParams p;
  p.mean_response_bytes = 5200;
  p.tiny_response_fraction = 0.3;
  p.reorder_prob = 0.004;
  workload::WebWorkload pop(p);

  std::vector<exp::ArmConfig> arms;
  {
    exp::ArmConfig a = exp::ArmConfig::prr_arm();
    a.name = "baseline (no ER)";
    arms.push_back(a);
    a.name = "naive ER";
    a.early_retransmit = tcp::EarlyRetransmitMode::kNaive;
    arms.push_back(a);
    a.name = "ER + M1 (reorder)";
    a.early_retransmit = tcp::EarlyRetransmitMode::kReorderMitigation;
    arms.push_back(a);
    a.name = "ER + M1 + M2 (delay)";
    a.early_retransmit = tcp::EarlyRetransmitMode::kBothMitigations;
    arms.push_back(a);
  }

  exp::RunOptions opts;
  opts.connections = 15000;
  opts.seed = 6;
  opts.threads = 0;  // parallel sweep: byte-identical to serial
  auto results = exp::run_arms(pop, arms, opts);
  const auto& base = results[0].metrics;

  auto pct_delta = [](uint64_t v, uint64_t b) {
    if (b == 0) return std::string("-");
    char buf[32];
    std::snprintf(buf, sizeof buf, "%+.0f%%",
                  (static_cast<double>(v) - static_cast<double>(b)) /
                      static_cast<double>(b) * 100);
    return std::string(buf);
  };

  util::Table t({"arm", "fast retx", "RTOs", "RTO in Disorder",
                 "undo events", "ER fired", "ER spurious", "total retx"});
  for (const auto& r : results) {
    const auto& m = r.metrics;
    t.add_row({r.name,
               std::to_string(m.fast_retransmits) + " (" +
                   pct_delta(m.fast_retransmits, base.fast_retransmits) +
                   ")",
               std::to_string(m.timeouts_total) + " (" +
                   pct_delta(m.timeouts_total, base.timeouts_total) + ")",
               std::to_string(m.timeouts_in_disorder) + " (" +
                   pct_delta(m.timeouts_in_disorder,
                             base.timeouts_in_disorder) +
                   ")",
               std::to_string(m.undo_events) + " (" +
                   pct_delta(m.undo_events, base.undo_events) + ")",
               std::to_string(m.er_triggered),
               m.er_triggered == 0
                   ? "-"
                   : util::Table::fmt_pct(
                         static_cast<double>(m.er_spurious) /
                         static_cast<double>(m.er_triggered)),
               std::to_string(m.retransmits_total) + " (" +
                   pct_delta(m.retransmits_total, base.retransmits_total) +
                   ")"});
  }
  std::printf("%s\n", t.to_string().c_str());

  // Table 11 proper: latency of responses that ER can help (lossy, more
  // than one segment).
  util::Table lat({"quantile", "baseline [ms]", "ER + both mitigations"});
  util::Samples b = results[0].latency.latency_ms(
      stats::LatencyTracker::Filter::kWithRetransmit, 1500);
  util::Samples er = results[3].latency.latency_ms(
      stats::LatencyTracker::Filter::kWithRetransmit, 1500);
  for (double q : {5.0, 10.0, 50.0, 90.0, 99.0}) {
    const double bv = b.quantile(q / 100.0);
    const double ev = er.quantile(q / 100.0);
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.0f [%+.1f%%]", ev,
                  bv > 0 ? (ev - bv) / bv * 100 : 0.0);
    lat.add_row({util::Table::fmt(q, 0), util::Table::fmt(bv, 0), buf});
  }
  std::printf("%s\n", lat.to_string().c_str());
  std::printf(
      "Paper Table 11 (ms deltas): 5%%: -8.5%%, 10%%: -5.6%%, 50%%: "
      "-8.0%%, 90%%: -3.3%%, 99%%: -0.6%%.\n");
  return 0;
}
