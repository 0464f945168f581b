// Cross-congestion-control properties: the paper's §4 claim that "both
// parts of the PRR algorithm are independent of the congestion control
// algorithm (CUBIC, New Reno, GAIMD etc.)". For every CC x recovery
// combination, a lossy transfer completes, and for PRR the exit window
// equals whatever ssthresh that CC chose.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "net/loss_model.h"
#include "sim/simulator.h"
#include "stats/recovery_log.h"
#include "tcp/connection.h"

namespace prr::tcp {
namespace {

using namespace prr::sim::literals;

struct Combo {
  CcKind cc;
  RecoveryKind recovery;
};

std::string combo_name(const ::testing::TestParamInfo<Combo>& info) {
  std::string cc = info.param.cc == CcKind::kNewReno ? "NewReno"
                   : info.param.cc == CcKind::kCubic ? "Cubic"
                                                     : "Gaimd";
  std::string rec =
      info.param.recovery == RecoveryKind::kPrr ? "Prr"
      : info.param.recovery == RecoveryKind::kRfc3517 ? "Rfc3517"
                                                      : "Linux";
  return cc + "_" + rec;
}

class CrossCcTest : public ::testing::TestWithParam<Combo> {};

TEST_P(CrossCcTest, LossyTransferCompletes) {
  const Combo combo = GetParam();
  sim::Simulator sim;
  ConnectionConfig cfg;
  cfg.sender.cc = combo.cc;
  cfg.sender.recovery = combo.recovery;
  cfg.sender.handshake_rtt = 60_ms;
  cfg.path =
      net::Path::Config::symmetric(util::DataRate::mbps(6), 60_ms, 150);
  Connection conn(sim, cfg, sim::Rng(21));
  const Metrics& m = conn.sender().metrics();
  conn.path().data_link().set_loss_model(
      std::make_unique<net::BernoulliLoss>(0.03, sim::Rng(22)));
  conn.write(500'000);
  sim.run(sim::Time::seconds(600));
  EXPECT_TRUE(conn.sender().all_acked());
  EXPECT_EQ(conn.receiver().rcv_nxt(), 500'000u);
  EXPECT_GT(m.fast_recovery_events, 0u);
}

TEST_P(CrossCcTest, PrrExitsAtWhateverSsthreshTheCcChose) {
  const Combo combo = GetParam();
  if (combo.recovery != RecoveryKind::kPrr) GTEST_SKIP();
  sim::Simulator sim;
  ConnectionConfig cfg;
  cfg.sender.cc = combo.cc;
  cfg.sender.recovery = combo.recovery;
  cfg.sender.handshake_rtt = 60_ms;
  cfg.path =
      net::Path::Config::symmetric(util::DataRate::mbps(6), 60_ms, 150);
  stats::RecoveryLog rlog;
  Connection conn(sim, cfg, sim::Rng(23));
  conn.sender().add_listener(&rlog);
  conn.path().data_link().set_loss_model(
      std::make_unique<net::BernoulliLoss>(0.02, sim::Rng(24)));
  conn.write(800'000);
  sim.run(sim::Time::seconds(600));
  ASSERT_TRUE(conn.sender().all_acked());
  int checked = 0;
  for (const auto& e : rlog.events()) {
    if (!e.completed || e.interrupted_by_timeout) continue;
    // With continuous data available, PRR's exit window is the CC's
    // target (within one MSS of quantization).
    EXPECT_LE(e.cwnd_after_exit, e.ssthresh + 1430) << combo_name(
        {GetParam(), 0});
    ++checked;
  }
  EXPECT_GT(checked, 0);
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, CrossCcTest,
    ::testing::Values(Combo{CcKind::kNewReno, RecoveryKind::kPrr},
                      Combo{CcKind::kNewReno, RecoveryKind::kRfc3517},
                      Combo{CcKind::kNewReno,
                            RecoveryKind::kLinuxRateHalving},
                      Combo{CcKind::kCubic, RecoveryKind::kPrr},
                      Combo{CcKind::kCubic, RecoveryKind::kRfc3517},
                      Combo{CcKind::kCubic,
                            RecoveryKind::kLinuxRateHalving},
                      Combo{CcKind::kGaimd, RecoveryKind::kPrr},
                      Combo{CcKind::kGaimd, RecoveryKind::kRfc3517},
                      Combo{CcKind::kGaimd,
                            RecoveryKind::kLinuxRateHalving}),
    combo_name);

// The CUBIC ratio example from §4: with a 30% reduction the proportional
// part spaces "seven new segments for every ten incoming ACKs" — checked
// end to end with CUBIC as the CC.
TEST(CubicPrrIntegration, ProportionalRatioRoughlySevenOfTen) {
  sim::Simulator sim;
  ConnectionConfig cfg;
  cfg.sender.mss = 1000;
  cfg.sender.cc = CcKind::kCubic;
  cfg.sender.recovery = RecoveryKind::kPrr;
  cfg.sender.initial_cwnd_segments = 30;
  cfg.sender.handshake_rtt = 100_ms;
  cfg.path = net::Path::Config::symmetric(util::DataRate::mbps(2.4),
                                          100_ms, 300);
  stats::RecoveryLog rlog;
  Connection conn(sim, cfg, sim::Rng(31));
  conn.sender().add_listener(&rlog);
  // Drop exactly one early segment from a 30-segment window.
  conn.path().data_link().set_loss_model(
      std::make_unique<net::DeterministicLoss>(std::set<uint64_t>{2}));
  conn.write(30'000);
  conn.write(0);
  sim.run(sim::Time::seconds(30));
  ASSERT_TRUE(conn.sender().all_acked());
  ASSERT_EQ(rlog.count(), 1u);
  const auto& e = rlog.events()[0];
  // CUBIC: ssthresh = 0.7 * cwnd at entry.
  EXPECT_NEAR(static_cast<double>(e.ssthresh) /
                  static_cast<double>(e.cwnd_at_start),
              0.7, 0.02);
  EXPECT_TRUE(e.completed);
  EXPECT_EQ(e.cwnd_after_exit, e.ssthresh);
}

}  // namespace
}  // namespace prr::tcp
