// RFC 2861 congestion-window validation: app-limited connections must
// not inflate cwnd, and idle periods decay it back toward the initial
// window — both Linux defaults the paper's servers ran, and both load-
// bearing for Table 5/6 (ssthresh at recovery entry reflects a window
// the connection actually used).
#include <gtest/gtest.h>

#include <memory>

#include "sim/simulator.h"
#include "tcp/connection.h"
#include "tcp/sender.h"

namespace prr::tcp {
namespace {

using namespace prr::sim::literals;

constexpr uint32_t kMss = 1000;

class WindowValidationTest : public ::testing::Test {
 protected:
  void make() {
    SenderConfig cfg;
    cfg.mss = kMss;
    cfg.cc = CcKind::kNewReno;
    cfg.handshake_rtt = 100_ms;
    sender = std::make_unique<Sender>(
        sim, cfg, [](net::Segment) {});
  }

  net::Segment ack(uint64_t cum) {
    net::Segment a;
    a.is_ack = true;
    a.ack = cum;
    a.rwnd = 1 << 30;
    return a;
  }

  sim::Simulator sim;
  std::unique_ptr<Sender> sender;
};

TEST_F(WindowValidationTest, AppLimitedAcksDoNotGrowCwnd) {
  make();
  // A 2-segment response against a 10-segment window: the flight never
  // fills cwnd, so ACKs must not inflate it.
  sender->write(2 * kMss);
  const uint64_t before = sender->cwnd_bytes();
  sender->on_ack_segment(ack(1 * kMss));
  sender->on_ack_segment(ack(2 * kMss));
  EXPECT_EQ(sender->cwnd_bytes(), before);
}

TEST_F(WindowValidationTest, CwndLimitedAcksDoGrowCwnd) {
  make();
  sender->write(30 * kMss);  // saturates IW10
  const uint64_t before = sender->cwnd_bytes();
  sender->on_ack_segment(ack(2 * kMss));
  EXPECT_GT(sender->cwnd_bytes(), before);
}

TEST_F(WindowValidationTest, IdleRestartDecaysWindow) {
  make();
  // Grow the window with a cwnd-limited transfer.
  sender->write(40 * kMss);
  uint64_t acked = 0;
  for (int i = 0; i < 30; ++i) {
    acked += kMss;
    sender->on_ack_segment(ack(acked));
  }
  sender->on_ack_segment(ack(40 * kMss));
  const uint64_t grown = sender->cwnd_bytes();
  ASSERT_GT(grown, 15 * kMss);
  // Idle for many RTOs, then the next write halves cwnd per idle RTO
  // down to the initial window.
  sim.run(sim.now() + 30_s);
  sender->write(kMss);
  EXPECT_EQ(sender->cwnd_bytes(),
            sender->config().initial_cwnd_bytes());
}

TEST_F(WindowValidationTest, ShortIdleKeepsWindow) {
  make();
  sender->write(40 * kMss);
  uint64_t acked = 0;
  for (int i = 0; i < 30; ++i) {
    acked += kMss;
    sender->on_ack_segment(ack(acked));
  }
  sender->on_ack_segment(ack(40 * kMss));
  const uint64_t grown = sender->cwnd_bytes();
  // Idle for less than one RTO: no decay.
  sim.run(sim.now() + 100_ms);
  sender->write(kMss);
  EXPECT_EQ(sender->cwnd_bytes(), grown);
}

}  // namespace
}  // namespace prr::tcp
