// Sender-side pacing: transmissions are spread at ~cwnd/srtt instead of
// line-rate bursts; totals and correctness are unaffected.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "net/loss_model.h"
#include "sim/simulator.h"
#include "tcp/connection.h"

namespace prr::tcp {
namespace {

using namespace prr::sim::literals;

ConnectionConfig paced_config(bool pacing) {
  ConnectionConfig cfg;
  cfg.sender.mss = 1000;
  cfg.sender.cc = CcKind::kNewReno;
  cfg.sender.pacing = pacing;
  cfg.sender.handshake_rtt = 100_ms;
  cfg.path =
      net::Path::Config::symmetric(util::DataRate::mbps(10), 100_ms, 200);
  return cfg;
}

// Records the simulated time of every transmission.
struct SendTimes final : SenderEvents {
  const sim::Simulator& sim;
  std::vector<sim::Time> at;
  explicit SendTimes(const sim::Simulator& s) : sim(s) {}
  void on_transmit(uint64_t, uint32_t, bool) override {
    at.push_back(sim.now());
  }
};

TEST(Pacing, SpreadsTheInitialWindow) {
  sim::Simulator sim;
  Connection conn(sim, paced_config(true), sim::Rng(1));
  SendTimes sends(sim);
  conn.sender().add_listener(&sends);
  conn.write(10'000);  // exactly IW10
  sim.run(sim::Time::seconds(5));
  ASSERT_EQ(sends.at.size(), 10u);
  // Paced interval = srtt / (gain * cwnd_segs) = 100ms / 12.5 = 8 ms.
  EXPECT_EQ(sends.at[0].ms(), 0);
  EXPECT_GT(sends.at[9].ms(), 50);
  EXPECT_LT(sends.at[9].ms(), 100);  // still inside one RTT (gain > 1)
  EXPECT_TRUE(conn.sender().all_acked());
}

TEST(Pacing, UnpacedSenderBurstsAtLineRate) {
  sim::Simulator sim;
  Connection conn(sim, paced_config(false), sim::Rng(1));
  SendTimes sends(sim);
  conn.sender().add_listener(&sends);
  conn.write(10'000);
  sim.run(sim::Time::seconds(5));
  ASSERT_EQ(sends.at.size(), 10u);
  EXPECT_EQ(sends.at[9].ms(), 0);  // all at once
}

TEST(Pacing, LossyTransferStillCompletes) {
  for (bool pacing : {false, true}) {
    sim::Simulator sim;
    Connection conn(sim, paced_config(pacing), sim::Rng(2));
    conn.path().data_link().set_loss_model(
        std::make_unique<net::BernoulliLoss>(0.04, sim::Rng(3)));
    conn.write(400'000);
    sim.run(sim::Time::seconds(300));
    EXPECT_TRUE(conn.sender().all_acked()) << "pacing=" << pacing;
    EXPECT_EQ(conn.receiver().rcv_nxt(), 400'000u);
  }
}

TEST(Pacing, PreventsQueueOverflowOnShallowBuffers) {
  // A 20-segment window into a 5-packet queue: the unpaced burst
  // overflows; pacing drains it through intact.
  auto run_with = [](bool pacing) {
    sim::Simulator sim;
    ConnectionConfig cfg = paced_config(pacing);
    cfg.sender.initial_cwnd_segments = 20;
    cfg.path = net::Path::Config::symmetric(util::DataRate::mbps(2),
                                            100_ms, 5);
    Connection conn(sim, cfg, sim::Rng(4));
    conn.write(20'000);
    sim.run(sim::Time::seconds(60));
    return conn.path().data_link().stats().dropped_queue;
  };
  EXPECT_GT(run_with(false), 0u);
  EXPECT_EQ(run_with(true), 0u);
}

TEST(Pacing, TimerDoesNotLeakWhenIdle) {
  sim::Simulator sim;
  Connection conn(sim, paced_config(true), sim::Rng(5));
  conn.write(5'000);
  sim.run(sim::Time::seconds(10));
  EXPECT_TRUE(conn.sender().all_acked());
  EXPECT_TRUE(sim.idle());
}

}  // namespace
}  // namespace prr::tcp
