// Non-SACK (NewReno, RFC 6582) recovery path: pure dupack counting,
// partial-ACK retransmission, the RFC 6937 one-MSS-per-dupack heuristic
// for PRR's DeliveredData, and end-to-end transfers against non-SACK
// clients (4% of the paper's connections).
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "net/loss_model.h"
#include "sim/simulator.h"
#include "tcp/connection.h"
#include "tcp/sender.h"

namespace prr::tcp {
namespace {

using namespace prr::sim::literals;

constexpr uint32_t kMss = 1000;

struct Sent {
  uint64_t seq;
  uint32_t len;
  bool retx;
};

class NewRenoRecoveryTest : public ::testing::Test {
 protected:
  void make(RecoveryKind kind = RecoveryKind::kPrr) {
    SenderConfig cfg;
    cfg.mss = kMss;
    cfg.initial_cwnd_segments = 20;
    cfg.cc = CcKind::kNewReno;
    cfg.recovery = kind;
    cfg.sack_enabled = false;
    cfg.handshake_rtt = 100_ms;
    wire.clear();
    sender = std::make_unique<Sender>(
        sim, cfg,
        [this](net::Segment s) {
          wire.push_back({s.seq, s.len, s.is_retransmit});
        });
  }

  // Pure duplicate ACK (no SACK blocks, as a non-SACK client sends).
  net::Segment dupack(uint64_t cum) {
    net::Segment a;
    a.is_ack = true;
    a.ack = cum;
    a.rwnd = 1 << 30;
    return a;
  }

  int count_retx() const {
    int n = 0;
    for (const auto& s : wire) n += s.retx;
    return n;
  }

  sim::Simulator sim;
  std::unique_ptr<Sender> sender;
  std::vector<Sent> wire;
};

TEST_F(NewRenoRecoveryTest, ThreeDupacksTriggerRecovery) {
  make();
  sender->write(20 * kMss);
  wire.clear();
  sender->on_ack_segment(dupack(0));
  EXPECT_EQ(sender->state(), TcpState::kDisorder);
  sender->on_ack_segment(dupack(0));
  EXPECT_EQ(sender->state(), TcpState::kDisorder);
  sender->on_ack_segment(dupack(0));
  EXPECT_EQ(sender->state(), TcpState::kRecovery);
  // The head segment is retransmitted even with no SACK information.
  ASSERT_GE(count_retx(), 1);
  EXPECT_EQ(wire.back().seq, 0u);
}

TEST_F(NewRenoRecoveryTest, TwoDupacksDoNotTrigger) {
  make();
  sender->write(20 * kMss);
  wire.clear();
  sender->on_ack_segment(dupack(0));
  sender->on_ack_segment(dupack(0));
  EXPECT_EQ(sender->state(), TcpState::kDisorder);
  EXPECT_EQ(count_retx(), 0);
}

TEST_F(NewRenoRecoveryTest, PartialAckRetransmitsNextHole) {
  make();
  sender->write(20 * kMss);
  wire.clear();
  for (int i = 0; i < 3; ++i) sender->on_ack_segment(dupack(0));
  ASSERT_EQ(sender->state(), TcpState::kRecovery);
  wire.clear();
  // Partial ACK: the retransmitted head arrived, but the next segment is
  // also missing. NewReno retransmits it immediately.
  sender->on_ack_segment(dupack(1 * kMss));
  EXPECT_EQ(sender->state(), TcpState::kRecovery);
  int head_retx = 0;
  for (const auto& s : wire) head_retx += (s.retx && s.seq == 1 * kMss);
  EXPECT_EQ(head_retx, 1);
}

TEST_F(NewRenoRecoveryTest, FullAckEndsRecoveryAtSsthresh) {
  make();
  sender->write(20 * kMss);
  wire.clear();
  for (int i = 0; i < 3; ++i) sender->on_ack_segment(dupack(0));
  ASSERT_EQ(sender->state(), TcpState::kRecovery);
  sender->on_ack_segment(dupack(20 * kMss));
  EXPECT_EQ(sender->state(), TcpState::kOpen);
  EXPECT_EQ(sender->cwnd_bytes(), sender->ssthresh_bytes());  // PRR exit
}

TEST_F(NewRenoRecoveryTest, DupacksAdvanceThePrrClock) {
  make();
  sender->write(20 * kMss);
  wire.clear();
  for (int i = 0; i < 3; ++i) sender->on_ack_segment(dupack(0));
  ASSERT_EQ(sender->state(), TcpState::kRecovery);
  // Each further dupack counts as one delivered MSS: PRR (Reno ratio
  // 1/2) releases roughly one transmission per two dupacks. With only
  // one marked hole (already retransmitted) the budget goes to new data.
  sender->write(10 * kMss);
  wire.clear();
  for (int i = 0; i < 8; ++i) sender->on_ack_segment(dupack(0));
  EXPECT_GE(static_cast<int>(wire.size()), 2);
  EXPECT_LE(static_cast<int>(wire.size()), 6);
}

TEST_F(NewRenoRecoveryTest, EndToEndTransferWithBurstLoss) {
  for (auto kind : {RecoveryKind::kPrr, RecoveryKind::kLinuxRateHalving,
                    RecoveryKind::kRfc3517}) {
    sim::Simulator fullsim;
    ConnectionConfig cfg;
    cfg.sender.mss = kMss;
    cfg.sender.recovery = kind;
    cfg.sender.sack_enabled = false;
    cfg.sender.handshake_rtt = 80_ms;
    cfg.receiver.sack_enabled = false;
    cfg.receiver.dsack_enabled = false;
    cfg.path =
        net::Path::Config::symmetric(util::DataRate::mbps(4), 80_ms, 100);
    Connection conn(fullsim, cfg, sim::Rng(11));
    const Metrics& m = conn.sender().metrics();
    conn.path().data_link().set_loss_model(
        std::make_unique<net::BernoulliLoss>(0.03, sim::Rng(12)));
    conn.write(300'000);
    fullsim.run(sim::Time::seconds(600));
    EXPECT_TRUE(conn.sender().all_acked()) << static_cast<int>(kind);
    EXPECT_EQ(conn.receiver().rcv_nxt(), 300'000u);
    EXPECT_GT(m.fast_recovery_events, 0u);
  }
}

TEST_F(NewRenoRecoveryTest, NonSackReceiverSendsPlainDupacks) {
  sim::Simulator fullsim;
  ConnectionConfig cfg;
  cfg.sender.mss = kMss;
  cfg.sender.sack_enabled = false;
  cfg.sender.handshake_rtt = 80_ms;
  cfg.receiver.sack_enabled = false;
  cfg.path =
      net::Path::Config::symmetric(util::DataRate::mbps(4), 80_ms, 100);
  Connection conn(fullsim, cfg, sim::Rng(7));
  int dupacks_with_sack = 0;
  conn.path().wire_tap = [&](const net::Segment& a, bool is_ack,
                             sim::Time) {
    if (is_ack && !a.sacks.empty()) ++dupacks_with_sack;
  };
  conn.path().data_link().set_loss_model(
      std::make_unique<net::DeterministicLoss>(std::set<uint64_t>{3}));
  conn.write(20 * kMss);
  fullsim.run(sim::Time::seconds(30));
  EXPECT_TRUE(conn.sender().all_acked());
  EXPECT_EQ(dupacks_with_sack, 0);  // wire carried no SACK blocks
}

TEST_F(NewRenoRecoveryTest, EffectivePipeDiscountsDupacks) {
  make();
  sender->write(20 * kMss);
  const uint64_t full = sender->pipe_bytes();
  EXPECT_EQ(full, 20 * kMss);
  sender->on_ack_segment(dupack(0));
  EXPECT_EQ(sender->pipe_bytes(), 19 * kMss);
  sender->on_ack_segment(dupack(0));
  EXPECT_EQ(sender->pipe_bytes(), 18 * kMss);
}

}  // namespace
}  // namespace prr::tcp
