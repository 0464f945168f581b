// Extension experiment: PRR under GAIMD with a swept multiplicative-
// decrease factor beta. The paper (and its reviewer response) stresses
// that PRR is orthogonal to congestion control — "designed to work in
// conjunction with any congestion control algorithm including GAIMD and
// Binomial". The proportional part must realize *whatever* reduction the
// CC chose: for each beta, the window at the end of recovery should sit
// near beta * cwnd_at_entry.
#include <cstdio>
#include <memory>

#include "bench_common.h"
#include "net/loss_model.h"
#include "sim/simulator.h"
#include "tcp/connection.h"

using namespace prr;

namespace {

struct Point {
  const char* name;
  tcp::CcKind cc;
  double beta;  // GAIMD beta, or the CC's intrinsic factor for reference
};

// One cwnd-limited bulk flow with sparse random losses; returns the mean
// cwnd_after_exit / cwnd_at_entry over clean (non-timeout) recoveries.
std::pair<double, std::size_t> realized_ratio(const Point& p,
                                              uint64_t seed) {
  sim::Simulator sim;
  tcp::ConnectionConfig cfg;
  cfg.sender.mss = 1000;
  cfg.sender.recovery = tcp::RecoveryKind::kPrr;
  cfg.sender.cc = p.cc;
  cfg.sender.gaimd_beta = p.beta;
  cfg.sender.handshake_rtt = sim::Time::milliseconds(80);
  cfg.path = net::Path::Config::symmetric(util::DataRate::mbps(8),
                                          sim::Time::milliseconds(80), 300);
  stats::RecoveryLog rlog;
  tcp::Connection conn(sim, cfg, sim::Rng(seed));
  conn.sender().add_listener(&rlog);
  conn.path().data_link().set_loss_model(
      std::make_unique<net::BernoulliLoss>(0.004, sim::Rng(seed + 1)));
  conn.write(3'000'000);
  sim.run(sim::Time::seconds(900));
  util::Samples ratios;
  for (const auto& e : rlog.events()) {
    if (!e.completed || e.interrupted_by_timeout || e.cwnd_at_start == 0)
      continue;
    ratios.add(static_cast<double>(e.cwnd_after_exit) /
               static_cast<double>(e.cwnd_at_start));
  }
  return {ratios.mean(), ratios.count()};
}

}  // namespace

int ext_gaimd_sweep() {
  bench::print_header(
      "Extension: PRR realizes any congestion-control reduction "
      "(GAIMD beta sweep)",
      "for each decrease factor, PRR's exit window converges to "
      "~beta * cwnd_at_entry — the reduction is the CC's choice, the "
      "pacing of it is PRR's");

  const Point points[] = {
      {"GAIMD(1, 0.40)", tcp::CcKind::kGaimd, 0.40},
      {"GAIMD(1, 0.50)", tcp::CcKind::kGaimd, 0.50},
      {"GAIMD(1, 0.60)", tcp::CcKind::kGaimd, 0.60},
      {"GAIMD(1, 0.70)", tcp::CcKind::kGaimd, 0.70},
      {"GAIMD(1, 0.80)", tcp::CcKind::kGaimd, 0.80},
      {"NewReno (beta 0.5)", tcp::CcKind::kNewReno, 0.50},
      {"CUBIC (beta 0.7)", tcp::CcKind::kCubic, 0.70},
      // Binomial IIAD reduces by exactly one segment per event, so its
      // "beta" is window-dependent: (w-1)/w, ~0.95+ at typical windows.
      {"Binomial IIAD (w-1)", tcp::CcKind::kBinomial, 0.95},
  };

  util::Table t({"congestion control", "target beta",
                 "realized cwnd_exit / cwnd_entry", "recoveries"});
  for (const auto& p : points) {
    auto [ratio, n] = realized_ratio(p, 77);
    t.add_row({p.name, util::Table::fmt(p.beta, 2),
               util::Table::fmt(ratio, 2), std::to_string(n)});
  }
  std::printf("%s\n", t.to_string().c_str());
  std::printf(
      "Expected: each realized ratio tracks its CC's beta — PRR itself "
      "imposes no particular reduction.\n");
  return 0;
}
