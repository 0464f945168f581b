// Sender unit tests that drive the state machine directly with hand-
// crafted ACK segments (no simulated network): window growth, limited
// transmit, RTO handling, state transitions, abort, and reset across
// algorithm kinds.
#include "tcp/sender.h"

#include <gtest/gtest.h>

#include <cstring>
#include <type_traits>
#include <utility>
#include <vector>

namespace prr::tcp {
namespace {

using namespace prr::sim::literals;

constexpr uint32_t kMss = 1000;

struct Sent {
  uint64_t seq;
  uint32_t len;
  bool retx;
  friend bool operator==(const Sent&, const Sent&) = default;
};

net::Segment make_ack(uint64_t cum, std::vector<net::SackBlock> sacks = {}) {
  net::Segment a;
  a.is_ack = true;
  a.ack = cum;
  a.sacks.assign(sacks.begin(), sacks.end());
  a.rwnd = 1 << 30;
  return a;
}

class SenderTest : public ::testing::Test {
 protected:
  SenderTest() { make(base_config()); }

  static SenderConfig base_config() {
    SenderConfig cfg;
    cfg.mss = kMss;
    cfg.initial_cwnd_segments = 10;
    cfg.cc = CcKind::kNewReno;
    cfg.recovery = RecoveryKind::kPrr;
    return cfg;
  }

  void make(SenderConfig cfg) {
    wire.clear();
    sender = std::make_unique<Sender>(
        sim, cfg,
        [this](net::Segment s) { wire.push_back({s.seq, s.len,
                                                 s.is_retransmit}); }, &rlog);
  }

  // Builds an ACK with optional SACK blocks.
  net::Segment ack(uint64_t cum, std::vector<net::SackBlock> sacks = {},
                   std::optional<net::SackBlock> dsack = std::nullopt) {
    net::Segment a = make_ack(cum, std::move(sacks));
    a.dsack = dsack;
    return a;
  }

  sim::Simulator sim;
  const Metrics& metrics() const { return sender->metrics(); }
  stats::RecoveryLog rlog;
  std::unique_ptr<Sender> sender;
  std::vector<Sent> wire;
};

TEST_F(SenderTest, InitialWindowLimitsFirstFlight) {
  sender->write(20 * kMss);
  EXPECT_EQ(wire.size(), 10u);  // IW10
  EXPECT_EQ(sender->snd_nxt(), 10 * kMss);
  EXPECT_EQ(wire[0].seq, 0u);
  EXPECT_FALSE(wire[0].retx);
}

TEST_F(SenderTest, SubMssTailIsSent) {
  sender->write(1500);
  ASSERT_EQ(wire.size(), 2u);
  EXPECT_EQ(wire[0].len, kMss);
  EXPECT_EQ(wire[1].len, 500u);
}

TEST_F(SenderTest, AckAdvancesAndClocksOutMoreData) {
  sender->write(20 * kMss);
  wire.clear();
  sender->on_ack_segment(ack(2 * kMss));
  // Slow start: cwnd 10 -> 11; flight 8 -> sends 3 new segments.
  EXPECT_EQ(wire.size(), 3u);
  EXPECT_EQ(sender->snd_una(), 2 * kMss);
}

TEST_F(SenderTest, SlowStartDoublesPerWindowWithPerAckGrowth) {
  sender->write(100 * kMss);
  EXPECT_EQ(sender->cwnd_segments(), 10);
  for (int i = 1; i <= 10; ++i) {
    sender->on_ack_segment(ack(static_cast<uint64_t>(i) * kMss));
  }
  EXPECT_EQ(sender->cwnd_segments(), 20);
}

TEST_F(SenderTest, DupackMovesToDisorder) {
  sender->write(10 * kMss);
  sender->on_ack_segment(ack(0, {{2 * kMss, 3 * kMss}}));
  EXPECT_EQ(sender->state(), TcpState::kDisorder);
}

TEST_F(SenderTest, LimitedTransmitSendsNewDataOnFirstTwoDupacks) {
  sender->write(20 * kMss);  // 10 sent, cwnd full
  wire.clear();
  sender->on_ack_segment(ack(0, {{1 * kMss, 2 * kMss}}));
  EXPECT_EQ(wire.size(), 1u);  // limited transmit #1
  EXPECT_FALSE(wire[0].retx);
  sender->on_ack_segment(ack(0, {{1 * kMss, 3 * kMss}}));
  EXPECT_EQ(wire.size(), 2u);  // limited transmit #2
  EXPECT_EQ(sender->state(), TcpState::kDisorder);
}

TEST_F(SenderTest, ReorderingRaisesDupthreshAndDisablesFack) {
  SenderConfig cfg = base_config();
  cfg.use_fack = false;  // avoid immediate threshold retransmission
  make(cfg);
  sender->write(10 * kMss);
  // SACK of a later segment, then the earlier data arrives in order:
  // classic reordering signature.
  sender->on_ack_segment(ack(0, {{5 * kMss, 6 * kMss}}));
  EXPECT_EQ(sender->state(), TcpState::kDisorder);
  sender->on_ack_segment(ack(2 * kMss));
  EXPECT_TRUE(sender->scoreboard().reordering_seen());
  EXPECT_FALSE(sender->scoreboard().fack_enabled());
  EXPECT_GE(sender->scoreboard().dupthresh(), Scoreboard::kInitialDupthresh);
}

TEST_F(SenderTest, RtoRetransmitsHeadAndCollapsesWindow) {
  sender->write(10 * kMss);
  wire.clear();
  sim.run(2_s);  // no ACKs: RTO fires (initial RTO 1 s)
  ASSERT_GE(wire.size(), 1u);
  EXPECT_TRUE(wire[0].retx);
  EXPECT_EQ(wire[0].seq, 0u);
  EXPECT_EQ(sender->state(), TcpState::kLoss);
  EXPECT_EQ(sender->cwnd_bytes(), kMss);
  EXPECT_EQ(metrics().timeouts_total, 1u + metrics().timeouts_exp_backoff);
  EXPECT_EQ(metrics().timeouts_in_open, 1u);
  EXPECT_EQ(metrics().timeout_retransmits, 1u);
}

TEST_F(SenderTest, LossStateSlowStartRetransmits) {
  sender->write(10 * kMss);
  sim.run(1100_ms);  // first RTO
  wire.clear();
  // ACK of the head retransmit: slow start grows cwnd, retransmits more.
  sender->on_ack_segment(ack(1 * kMss));
  EXPECT_EQ(sender->state(), TcpState::kLoss);
  ASSERT_GE(wire.size(), 1u);
  EXPECT_TRUE(wire[0].retx);
  EXPECT_GT(metrics().slow_start_retransmits, 0u);
}

TEST_F(SenderTest, LossStateExitsAtRecoveryPoint) {
  sender->write(5 * kMss);
  sim.run(1100_ms);
  sender->on_ack_segment(ack(1 * kMss));
  sender->on_ack_segment(ack(3 * kMss));
  sender->on_ack_segment(ack(5 * kMss));
  EXPECT_EQ(sender->state(), TcpState::kOpen);
  EXPECT_TRUE(sender->all_acked());
}

TEST_F(SenderTest, ExponentialBackoffCountsAndAborts) {
  SenderConfig cfg = base_config();
  cfg.max_rto_backoffs = 3;
  make(cfg);
  sender->write(5 * kMss);
  sim.run(120_s);
  EXPECT_TRUE(sender->aborted());
  EXPECT_EQ(metrics().connections_aborted, 1u);
  EXPECT_GT(metrics().timeouts_exp_backoff, 0u);
  EXPECT_GT(metrics().failed_retransmits, 0u);
}

TEST_F(SenderTest, NoTimerWhenIdle) {
  sender->write(2 * kMss);
  sender->on_ack_segment(ack(2 * kMss));
  EXPECT_TRUE(sender->all_acked());
  sim.run(10_s);  // no spurious RTO
  EXPECT_EQ(metrics().timeouts_total, 0u);
}

TEST_F(SenderTest, RwndLimitsNewData) {
  sender->write(20 * kMss);  // 10 sent (IW10), 10 waiting
  wire.clear();
  net::Segment a = ack(2 * kMss);
  a.rwnd = 9 * kMss;  // flight 8 after the ACK: room for only 1 more
  sender->on_ack_segment(a);
  EXPECT_EQ(wire.size(), 1u);
}

TEST_F(SenderTest, OldAckIgnored) {
  sender->write(5 * kMss);
  sender->on_ack_segment(ack(3 * kMss));
  wire.clear();
  sender->on_ack_segment(ack(1 * kMss));  // stale
  EXPECT_EQ(sender->snd_una(), 3 * kMss);
}

TEST_F(SenderTest, WriteAfterAbortIsIgnored) {
  SenderConfig cfg = base_config();
  cfg.max_rto_backoffs = 1;
  make(cfg);
  sender->write(2 * kMss);
  sim.run(60_s);
  ASSERT_TRUE(sender->aborted());
  wire.clear();
  sender->write(5 * kMss);
  EXPECT_TRUE(wire.empty());
}

TEST_F(SenderTest, TransmitHookSeesEverySegment) {
  struct Counter final : SenderEvents {
    int transmits = 0;
    void on_transmit(uint64_t, uint32_t, bool) override { ++transmits; }
  } counter;
  sender->add_listener(&counter);
  sender->write(3 * kMss);
  EXPECT_EQ(counter.transmits, 3);
}

TEST_F(SenderTest, NetworkTransmitTimeAccumulatesBusyPeriods) {
  sender->write(2 * kMss);
  sim.schedule_in(100_ms, [&] { sender->on_ack_segment(ack(2 * kMss)); });
  sim.run(200_ms);
  EXPECT_EQ(sender->network_transmit_time().ms(), 100);
  // Idle afterwards: no more accumulation.
  sim.run(500_ms);
  EXPECT_EQ(sender->network_transmit_time().ms(), 100);
}

// A fixed ACK script, 50 ms apart: a hole at segment 1 repaired by fast
// recovery (eight SACKed dupacks, then the cumulative ACK), some
// congestion-avoidance ACKs, then silence until RTOs fire, one partial
// ACK, and silence again.
void run_loss_script(sim::Simulator& sim, Sender& s) {
  s.write(40 * kMss);
  std::vector<net::Segment> acks = {make_ack(1 * kMss)};
  for (uint64_t end = 3; end <= 10; ++end) {
    acks.push_back(make_ack(1 * kMss, {{2 * kMss, end * kMss}}));
  }
  for (uint64_t cum : {10, 12, 14, 15}) acks.push_back(make_ack(cum * kMss));
  for (const net::Segment& a : acks) {
    sim.run(sim.now() + 50_ms);
    s.on_ack_segment(a);
  }
  sim.run(sim.now() + 5_s);
  s.on_ack_segment(make_ack(20 * kMss));
  sim.run(sim.now() + 5_s);
}

TEST(SenderReset, RecycledAcrossKindsEqualsFresh) {
  // One sender recycled through three (CC, recovery) pairs must replay
  // the loss script exactly as a freshly constructed sender of each pair:
  // the reset rebuilds the congestion control and recovery policy values
  // along with every other per-connection field.
  static_assert(std::is_trivially_copyable_v<Metrics>);
  const struct {
    CcKind cc;
    RecoveryKind recovery;
  } kinds[] = {{CcKind::kCubic, RecoveryKind::kPrr},
               {CcKind::kGaimd, RecoveryKind::kRfc3517},
               {CcKind::kBinomial, RecoveryKind::kLinuxRateHalving}};
  auto config = [](CcKind cc, RecoveryKind recovery) {
    SenderConfig cfg;
    cfg.mss = kMss;
    cfg.cc = cc;
    cfg.gaimd_beta = 0.6;
    cfg.recovery = recovery;
    return cfg;
  };
  auto capture = [](std::vector<Sent>& wire) {
    return [&wire](net::Segment s) {
      wire.push_back({s.seq, s.len, s.is_retransmit});
    };
  };

  sim::Simulator pooled_sim;
  std::vector<Sent> pooled_wire;
  stats::RecoveryLog pooled_log;
  Sender pooled(pooled_sim, config(kinds[0].cc, kinds[0].recovery),
                capture(pooled_wire), &pooled_log);
  bool first = true;
  for (const auto& [cc, recovery] : kinds) {
    SCOPED_TRACE(static_cast<int>(cc));
    const SenderConfig cfg = config(cc, recovery);
    if (!first) {
      pooled_sim.reset();
      pooled.reset(cfg, &pooled_log);
    }
    first = false;
    pooled_wire.clear();
    run_loss_script(pooled_sim, pooled);

    sim::Simulator fresh_sim;
    std::vector<Sent> fresh_wire;
    stats::RecoveryLog fresh_log;
    Sender fresh(fresh_sim, cfg, capture(fresh_wire), &fresh_log);
    run_loss_script(fresh_sim, fresh);

    EXPECT_GE(fresh.metrics().fast_recovery_events, 1u);
    EXPECT_GE(fresh.metrics().timeouts_total, 1u);
    EXPECT_TRUE(pooled_wire == fresh_wire);
    EXPECT_EQ(std::memcmp(&pooled.metrics(), &fresh.metrics(),
                          sizeof(Metrics)),
              0)
        << "{" << pooled.metrics().summary() << "} vs {"
        << fresh.metrics().summary() << "}";
    EXPECT_EQ(pooled.cwnd_bytes(), fresh.cwnd_bytes());
    EXPECT_EQ(pooled.ssthresh_bytes(), fresh.ssthresh_bytes());
    EXPECT_EQ(pooled.state(), fresh.state());
    EXPECT_EQ(pooled.recovery_policy().index(),
              fresh.recovery_policy().index());
  }
}

}  // namespace
}  // namespace prr::tcp
