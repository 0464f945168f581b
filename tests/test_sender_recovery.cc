// Fast-recovery behaviour of the sender with each policy: entry rules,
// retransmission pacing, exit windows, DSACK undo, early retransmit, and
// recovery-event instrumentation.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "stats/recovery_log.h"
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

class SenderRecoveryTest : public ::testing::Test {
 protected:
  static SenderConfig config_for(RecoveryKind kind) {
    SenderConfig cfg;
    cfg.mss = kMss;
    cfg.initial_cwnd_segments = 20;
    cfg.cc = CcKind::kNewReno;
    cfg.recovery = kind;
    return cfg;
  }

  void make(SenderConfig cfg) {
    wire.clear();
    sender = std::make_unique<Sender>(
        sim, cfg,
        [this](net::Segment s) {
          wire.push_back({s.seq, s.len, s.is_retransmit});
        });
    sender->add_listener(&rlog);
  }

  net::Segment ack(uint64_t cum, std::vector<net::SackBlock> sacks = {},
                   std::optional<net::SackBlock> dsack = std::nullopt) {
    net::Segment a;
    a.is_ack = true;
    a.ack = cum;
    a.sacks.assign(sacks.begin(), sacks.end());
    a.dsack = dsack;
    a.rwnd = 1 << 30;
    return a;
  }

  // Sends 20 segments and drops the first `losses`; feeds dupacks (one
  // SACK per arriving segment above the holes) until recovery triggers —
  // immediately for deep holes (FACK threshold), after dupthresh dupacks
  // for shallow ones.
  void enter_with_losses(int losses) {
    sender->write(20 * kMss);
    ASSERT_EQ(wire.size(), 20u);
    wire.clear();
    const uint64_t hole_end = static_cast<uint64_t>(losses) * kMss;
    for (int i = 0; i < 3 && sender->state() != TcpState::kRecovery; ++i) {
      sender->on_ack_segment(
          ack(0, {{hole_end, hole_end + (i + 1) * kMss}}));
    }
    ASSERT_EQ(sender->state(), TcpState::kRecovery);
  }

  int count_retx() const {
    int n = 0;
    for (const auto& s : wire) n += s.retx;
    return n;
  }

  sim::Simulator sim;
  const Metrics& metrics() const { return sender->metrics(); }
  stats::RecoveryLog rlog;
  std::unique_ptr<Sender> sender;
  std::vector<Sent> wire;
};

TEST_F(SenderRecoveryTest, FackEntersOnFirstSackWhenManyMissing) {
  make(config_for(RecoveryKind::kPrr));
  enter_with_losses(4);
  EXPECT_EQ(sender->state(), TcpState::kRecovery);
  EXPECT_EQ(metrics().fast_recovery_events, 1u);
  // The triggering ACK produced the fast retransmit of the first hole.
  ASSERT_GE(count_retx(), 1);
  EXPECT_EQ(wire[0].seq, 0u);
  EXPECT_TRUE(wire[0].retx);
}

TEST_F(SenderRecoveryTest, ClassicDupthreshEntryWithoutFack) {
  SenderConfig cfg = config_for(RecoveryKind::kPrr);
  cfg.use_fack = false;
  make(cfg);
  sender->write(20 * kMss);
  wire.clear();
  sender->on_ack_segment(ack(0, {{1000, 2000}}));
  EXPECT_EQ(sender->state(), TcpState::kDisorder);
  sender->on_ack_segment(ack(0, {{1000, 3000}}));
  EXPECT_EQ(sender->state(), TcpState::kDisorder);
  sender->on_ack_segment(ack(0, {{1000, 4000}}));
  EXPECT_EQ(sender->state(), TcpState::kRecovery);
}

TEST_F(SenderRecoveryTest, PrrPacesOneRetransmitPerTwoAcks) {
  make(config_for(RecoveryKind::kPrr));
  enter_with_losses(4);  // ssthresh = 10 (Reno halves 20)
  // The entry ACK already forced the first fast retransmit (RFC 6937:
  // sndcnt = MAX(1 MSS, sndcnt) on entry). Feed 8 more dupacks; PRR
  // (ratio 1/2) releases a segment once the byte allowance reaches a
  // full MSS: 8 ACKs at 500 B/ACK net allowance -> 3 more transmissions
  // (the forced entry send consumed one segment of allowance).
  int sent_after_entry = 0;
  int max_per_ack = 0;
  for (int i = 0; i < 8; ++i) {
    wire.clear();
    const uint64_t sacked_to = (4 + 2 + i) * kMss;
    sender->on_ack_segment(ack(0, {{4 * kMss, sacked_to}}));
    sent_after_entry += static_cast<int>(wire.size());
    max_per_ack = std::max(max_per_ack, static_cast<int>(wire.size()));
  }
  EXPECT_EQ(sent_after_entry, 3);
  EXPECT_LE(max_per_ack, 1);  // never more than one segment per ACK here
}

TEST_F(SenderRecoveryTest, PrrExitsAtSsthresh) {
  make(config_for(RecoveryKind::kPrr));
  enter_with_losses(4);
  for (int i = 0; i < 15; ++i) {
    sender->on_ack_segment(
        ack(0, {{4 * kMss, (6 + i) * kMss}}));
  }
  // Retransmits delivered: cumulative ACK completes recovery.
  sender->on_ack_segment(ack(20 * kMss));
  EXPECT_EQ(sender->state(), TcpState::kOpen);
  EXPECT_EQ(sender->cwnd_bytes(), sender->ssthresh_bytes());
  ASSERT_EQ(rlog.count(), 1u);
  EXPECT_TRUE(rlog.events()[0].completed);
  EXPECT_EQ(rlog.events()[0].cwnd_after_exit, sender->ssthresh_bytes());
}

TEST_F(SenderRecoveryTest, LinuxExitsAtPipePlusOne) {
  make(config_for(RecoveryKind::kLinuxRateHalving));
  enter_with_losses(4);
  for (int i = 0; i < 15; ++i) {
    sender->on_ack_segment(ack(0, {{4 * kMss, (6 + i) * kMss}}));
  }
  sender->on_ack_segment(ack(20 * kMss));
  EXPECT_EQ(sender->state(), TcpState::kOpen);
  // Everything was delivered: pipe is 0, so cwnd collapses to ~1 MSS —
  // the paper's "slow start after recovery" problem.
  EXPECT_LE(sender->cwnd_bytes(), 2 * kMss);
  EXPECT_LT(sender->cwnd_bytes(), sender->ssthresh_bytes());
}

TEST_F(SenderRecoveryTest, Rfc3517SendsBurstWhenPipeCollapses) {
  make(config_for(RecoveryKind::kRfc3517));
  sender->write(20 * kMss);
  wire.clear();
  // Catastrophic loss: only segments 17-20 arrive; the first SACK already
  // reveals 16 missing. pipe collapses far below ssthresh = 10, and the
  // very first in-recovery ACK opens a cwnd - pipe hole that RFC 3517
  // fills with one multi-segment retransmission burst.
  sender->on_ack_segment(ack(0, {{16 * kMss, 17 * kMss}}));
  ASSERT_EQ(sender->state(), TcpState::kRecovery);
  // 17 fackets - dupthresh = 14 exposed holes; pipe ~ 3 vs cwnd = 10:
  // RFC 3517 fills the gap with a single burst.
  EXPECT_GE(count_retx(), 5);
}

TEST_F(SenderRecoveryTest, Rfc3517EntryBurstRecordedInEventLog) {
  make(config_for(RecoveryKind::kRfc3517));
  sender->write(20 * kMss);
  wire.clear();
  sender->on_ack_segment(ack(0, {{16 * kMss, 17 * kMss}}));
  ASSERT_EQ(sender->state(), TcpState::kRecovery);
  // Complete the recovery so the event is logged.
  sender->on_ack_segment(ack(20 * kMss));
  ASSERT_EQ(rlog.count(), 1u);
  EXPECT_GE(rlog.events()[0].max_burst_segments, 4u);
}

TEST_F(SenderRecoveryTest, PrrSlowStartPartAvoidsBurst) {
  make(config_for(RecoveryKind::kPrr));
  sender->write(20 * kMss);
  wire.clear();
  sender->on_ack_segment(ack(0, {{16 * kMss, 17 * kMss}}));
  ASSERT_EQ(sender->state(), TcpState::kRecovery);
  wire.clear();
  sender->on_ack_segment(ack(0, {{16 * kMss, 19 * kMss}}));
  // Slow-start part: at most DeliveredData + 1 MSS per ACK (here 2 segs
  // delivered -> at most 3 segments).
  EXPECT_LE(static_cast<int>(wire.size()), 3);
}

TEST_F(SenderRecoveryTest, RecoveryEventRecordsPipeAndSsthresh) {
  make(config_for(RecoveryKind::kPrr));
  enter_with_losses(4);
  for (int i = 0; i < 15; ++i) {
    sender->on_ack_segment(ack(0, {{4 * kMss, (6 + i) * kMss}}));
  }
  sender->on_ack_segment(ack(20 * kMss));
  ASSERT_EQ(rlog.count(), 1u);
  const auto& e = rlog.events()[0];
  EXPECT_EQ(e.ssthresh, 10 * kMss);
  // At entry: 20 in flight, 1 SACKed, holes marked lost.
  EXPECT_LT(e.pipe_at_start, 20 * kMss);
  EXPECT_GT(e.pipe_at_start, 10 * kMss);
  EXPECT_EQ(e.mss, kMss);
  EXPECT_GE(e.retransmits, 4u);
  EXPECT_FALSE(e.slow_start_after);
}

TEST_F(SenderRecoveryTest, TimeoutDuringRecoveryLogsInterruptedEvent) {
  make(config_for(RecoveryKind::kPrr));
  enter_with_losses(4);
  ASSERT_EQ(sender->state(), TcpState::kRecovery);
  sim.run(5_s);  // no more ACKs: RTO interrupts recovery
  EXPECT_EQ(metrics().timeouts_in_recovery, 1u);
  ASSERT_GE(rlog.count(), 1u);
  EXPECT_TRUE(rlog.events()[0].interrupted_by_timeout);
  EXPECT_FALSE(rlog.events()[0].completed);
}

TEST_F(SenderRecoveryTest, DsackUndoRevertsCongestionState) {
  SenderConfig cfg = config_for(RecoveryKind::kPrr);
  cfg.use_fack = false;
  make(cfg);
  sender->write(20 * kMss);
  wire.clear();
  const uint64_t prior_cwnd = sender->cwnd_bytes();
  // Reordering-induced spurious recovery: three dupacks...
  sender->on_ack_segment(ack(0, {{1000, 2000}}));
  sender->on_ack_segment(ack(0, {{1000, 3000}}));
  sender->on_ack_segment(ack(0, {{1000, 4000}}));
  ASSERT_EQ(sender->state(), TcpState::kRecovery);
  ASSERT_EQ(count_retx(), 1);
  // ...then the cumulative ACK arrives (original was only delayed) and a
  // DSACK reports the retransmission as a duplicate.
  sender->on_ack_segment(ack(20 * kMss, {}, net::SackBlock{0, 1000}));
  EXPECT_EQ(metrics().undo_events, 1u);
  EXPECT_EQ(metrics().spurious_retransmits, 1u);
  EXPECT_EQ(sender->state(), TcpState::kOpen);
  EXPECT_GE(sender->cwnd_bytes(), prior_cwnd);
}

TEST_F(SenderRecoveryTest, DsackWithoutFullCoverageDoesNotUndo) {
  make(config_for(RecoveryKind::kPrr));
  enter_with_losses(4);  // genuine loss: retransmits are not spurious
  const uint64_t reduced_ssthresh = sender->ssthresh_bytes();
  // A stray DSACK for data we never retransmitted in this episode.
  sender->on_ack_segment(
      ack(0, {{4 * kMss, 6 * kMss}}, net::SackBlock{10 * kMss, 11 * kMss}));
  EXPECT_EQ(metrics().undo_events, 0u);
  EXPECT_EQ(sender->ssthresh_bytes(), reduced_ssthresh);
  EXPECT_EQ(metrics().dsacks_received, 1u);
}

TEST_F(SenderRecoveryTest, LostRetransmitCountsAndRetransmitsAgain) {
  make(config_for(RecoveryKind::kPrr));
  enter_with_losses(1);
  ASSERT_EQ(count_retx(), 1);
  // Give the application more data so new segments follow the
  // retransmission into the network.
  sender->write(5 * kMss);
  wire.clear();
  for (int i = 0; i < 12; ++i) {
    sender->on_ack_segment(ack(0, {{1 * kMss, (4 + i) * kMss}}));
  }
  // New data (beyond the original 20 kB) was sent during recovery.
  bool sent_new = false;
  uint64_t new_seq = 0;
  for (const auto& s : wire) {
    if (!s.retx && s.seq >= 20 * kMss) {
      sent_new = true;
      new_seq = s.seq;
    }
  }
  ASSERT_TRUE(sent_new);
  // SACK that new data while the hole persists: the retransmission of
  // segment 0 was itself lost.
  sender->on_ack_segment(
      ack(0, {{new_seq, new_seq + kMss}, {1 * kMss, 16 * kMss}}));
  EXPECT_GE(metrics().lost_retransmits_detected, 1u);
  EXPECT_GE(metrics().lost_fast_retransmits, 1u);
  // The hole is retransmitted again.
  int retx_of_head = 0;
  for (const auto& s : wire) retx_of_head += (s.retx && s.seq == 0);
  EXPECT_GE(retx_of_head, 1);
}

// ---- Early retransmit (§6) ----

class EarlyRetransmitTest : public SenderRecoveryTest {
 protected:
  void make_er(EarlyRetransmitMode mode) {
    SenderConfig cfg = config_for(RecoveryKind::kPrr);
    cfg.initial_cwnd_segments = 10;
    cfg.early_retransmit = mode;
    make(cfg);
  }

  // Two-segment response whose first segment is lost: only one dupack
  // ever arrives, so classic fast retransmit cannot trigger.
  void short_flow_tail_loss() {
    sender->write(2 * kMss);
    ASSERT_EQ(wire.size(), 2u);
    wire.clear();
    sender->on_ack_segment(ack(0, {{kMss, 2 * kMss}}));
  }
};

TEST_F(EarlyRetransmitTest, OffMeansNoEarlyRetransmit) {
  make_er(EarlyRetransmitMode::kOff);
  short_flow_tail_loss();
  sim.run(400_ms);
  EXPECT_EQ(count_retx(), 0);  // waits for the (1 s) RTO instead
  EXPECT_EQ(sender->state(), TcpState::kDisorder);
}

TEST_F(EarlyRetransmitTest, NaiveErFiresImmediately) {
  make_er(EarlyRetransmitMode::kNaive);
  short_flow_tail_loss();
  EXPECT_EQ(sender->state(), TcpState::kRecovery);
  EXPECT_EQ(count_retx(), 1);
  EXPECT_EQ(metrics().er_triggered, 1u);
}

TEST_F(EarlyRetransmitTest, NaiveErSpuriousOnReordering) {
  make_er(EarlyRetransmitMode::kNaive);
  short_flow_tail_loss();
  ASSERT_EQ(count_retx(), 1);
  // The "lost" segment was only reordered; DSACK reports the duplicate.
  sender->on_ack_segment(ack(2 * kMss, {}, net::SackBlock{0, kMss}));
  EXPECT_EQ(metrics().undo_events, 1u);
  EXPECT_EQ(metrics().er_spurious, 1u);
}

TEST_F(EarlyRetransmitTest, MitigationOneBlocksAfterReordering) {
  make_er(EarlyRetransmitMode::kReorderMitigation);
  // Teach the connection that the path reorders.
  sender->write(6 * kMss);
  sender->on_ack_segment(ack(0, {{4 * kMss, 5 * kMss}}));
  sender->on_ack_segment(ack(6 * kMss));  // late arrival: reordering seen
  ASSERT_TRUE(sender->scoreboard().reordering_seen());
  wire.clear();
  // Now a short-flow tail loss: ER must not fire.
  sender->write(2 * kMss);
  wire.clear();
  sender->on_ack_segment(ack(6 * kMss, {{7 * kMss, 8 * kMss}}));
  EXPECT_EQ(count_retx(), 0);
  EXPECT_NE(sender->state(), TcpState::kRecovery);
}

TEST_F(EarlyRetransmitTest, DelayedErFiresAfterTimer) {
  make_er(EarlyRetransmitMode::kBothMitigations);
  short_flow_tail_loss();
  // Not immediate...
  EXPECT_EQ(count_retx(), 0);
  EXPECT_EQ(sender->state(), TcpState::kDisorder);
  // ...but the delayed timer (>= 25 ms) fires and recovers.
  sim.run(600_ms);
  EXPECT_EQ(count_retx(), 1);
  EXPECT_EQ(metrics().er_triggered, 1u);
  EXPECT_GT(sim.now().ms(), 24);
}

TEST_F(EarlyRetransmitTest, DelayedErCancelledByArrivingAck) {
  make_er(EarlyRetransmitMode::kBothMitigations);
  short_flow_tail_loss();
  EXPECT_EQ(count_retx(), 0);
  // The missing segment arrives slightly late: cumulative ACK cancels
  // the pending early retransmission.
  sender->on_ack_segment(ack(2 * kMss));
  sim.run(600_ms);
  EXPECT_EQ(count_retx(), 0);
  EXPECT_EQ(metrics().er_delayed_cancelled, 1u);
  EXPECT_EQ(metrics().er_triggered, 0u);
}

TEST_F(EarlyRetransmitTest, ErOnlyForSmallFlights) {
  SenderConfig cfg = config_for(RecoveryKind::kPrr);
  cfg.initial_cwnd_segments = 10;
  cfg.early_retransmit = EarlyRetransmitMode::kNaive;
  cfg.use_fack = false;  // keep FACK threshold entry out of the picture
  make(cfg);
  sender->write(6 * kMss);  // flight of 6: ER must not apply
  wire.clear();
  sender->on_ack_segment(ack(0, {{5 * kMss, 6 * kMss}}));
  EXPECT_EQ(sender->state(), TcpState::kDisorder);
  EXPECT_EQ(metrics().er_triggered, 0u);
}

TEST_F(EarlyRetransmitTest, ErSkippedWhenNewDataAvailable) {
  make_er(EarlyRetransmitMode::kNaive);
  sender->write(2 * kMss);
  wire.clear();
  sender->write(5 * kMss);  // plenty of new data: limited transmit instead
  wire.clear();
  sender->on_ack_segment(ack(0, {{kMss, 2 * kMss}}));
  EXPECT_EQ(metrics().er_triggered, 0u);
}

}  // namespace
}  // namespace prr::tcp
