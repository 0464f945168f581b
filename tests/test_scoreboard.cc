#include "tcp/scoreboard.h"

#include <gtest/gtest.h>

namespace prr::tcp {
namespace {

using namespace prr::sim::literals;

constexpr uint32_t kMss = 1000;

net::Segment make_ack(uint64_t cum, std::vector<net::SackBlock> sacks = {},
                      std::optional<net::SackBlock> dsack = std::nullopt) {
  net::Segment a;
  a.is_ack = true;
  a.ack = cum;
  a.sacks.assign(sacks.begin(), sacks.end());
  a.dsack = dsack;
  return a;
}

class ScoreboardTest : public ::testing::Test {
 protected:
  ScoreboardTest() : sb(kMss) { sb.reset(0); }

  // Transmits n MSS segments starting at snd.una.
  void send_n(int n, sim::Time at = 0_ms) {
    for (int i = 0; i < n; ++i) {
      sb.on_transmit(next_, next_ + kMss, at);
      next_ += kMss;
    }
  }

  Scoreboard sb;
  uint64_t next_ = 0;
};

TEST_F(ScoreboardTest, PipeEqualsFlightWithNoLoss) {
  send_n(10);
  EXPECT_EQ(sb.pipe(), 10 * kMss);
}

TEST_F(ScoreboardTest, CumulativeAckPopsRecords) {
  send_n(10);
  auto out = sb.on_ack(make_ack(3000), 50_ms);
  EXPECT_TRUE(out.una_advanced);
  EXPECT_EQ(out.newly_acked_bytes, 3000u);
  EXPECT_EQ(sb.snd_una(), 3000u);
  EXPECT_EQ(sb.pipe(), 7 * kMss);
}

TEST_F(ScoreboardTest, SackReducesPipeAndCountsDelivered) {
  send_n(10);
  auto out = sb.on_ack(make_ack(0, {{4000, 5000}}), 50_ms);
  EXPECT_FALSE(out.una_advanced);
  EXPECT_EQ(out.newly_sacked_bytes, kMss);
  EXPECT_EQ(out.delivered_bytes(), kMss);
  EXPECT_EQ(sb.pipe(), 9 * kMss);
  EXPECT_EQ(sb.highest_sacked_end(), 5000u);
  EXPECT_EQ(sb.sacked_segment_count(), 1);
  EXPECT_EQ(sb.dupacks(), 1);  // SACK news is a duplicate ACK
}

TEST_F(ScoreboardTest, DuplicateSackNotCountedTwice) {
  send_n(10);
  sb.on_ack(make_ack(0, {{4000, 5000}}), 50_ms);
  auto out = sb.on_ack(make_ack(0, {{4000, 5000}}), 51_ms);
  EXPECT_EQ(out.newly_sacked_bytes, 0u);
  EXPECT_EQ(sb.dupacks(), 1);  // no SACK news, no second dupack
}

TEST_F(ScoreboardTest, NonSackDupacksCountPureAcksUntilSndUnaAdvances) {
  sb.reset(0, kMss, /*use_fack=*/true, /*sack_enabled=*/false);
  sb.on_ack(make_ack(0), 1_ms);  // nothing outstanding: not a dupack
  EXPECT_EQ(sb.dupacks(), 0);
  send_n(5);
  sb.on_ack(make_ack(0), 2_ms);
  sb.on_ack(make_ack(0), 3_ms);
  EXPECT_EQ(sb.dupacks(), 2);
  net::Segment with_data = make_ack(0);
  with_data.len = kMss;  // carries data: not a pure ACK
  sb.on_ack(with_data, 4_ms);
  EXPECT_EQ(sb.dupacks(), 2);
  EXPECT_FALSE(sb.recovery_triggered());
  sb.on_ack(make_ack(0), 5_ms);
  EXPECT_EQ(sb.dupacks(), 3);
  EXPECT_TRUE(sb.recovery_triggered());  // dupthresh dupacks
  sb.on_ack(make_ack(1000), 6_ms);  // snd.una advances
  EXPECT_EQ(sb.dupacks(), 0);
}

TEST_F(ScoreboardTest, DeliveredDataDoesNotDoubleCountSackedOnCumAck) {
  send_n(10);
  sb.on_ack(make_ack(0, {{1000, 3000}}), 50_ms);
  // Cum ack covers the sacked range: only the unsacked byte ranges count.
  auto out = sb.on_ack(make_ack(3000), 60_ms);
  EXPECT_EQ(out.newly_acked_bytes, 1000u);  // bytes 0-1000 only
  EXPECT_EQ(out.delivered_bytes(), 1000u);
}

TEST_F(ScoreboardTest, DeliveredDataSumEqualsForwardProgress) {
  // The paper's invariant: sum of DeliveredData == total forward progress,
  // however ACKs are split between SACK and cumulative advances.
  send_n(10);
  uint64_t delivered = 0;
  delivered += sb.on_ack(make_ack(0, {{2000, 4000}}), 1_ms)
                   .delivered_bytes();
  delivered += sb.on_ack(make_ack(1000, {{2000, 5000}}), 2_ms)
                   .delivered_bytes();
  delivered += sb.on_ack(make_ack(6000), 3_ms).delivered_bytes();
  delivered += sb.on_ack(make_ack(10000), 4_ms).delivered_bytes();
  EXPECT_EQ(delivered, 10 * kMss);
}

TEST_F(ScoreboardTest, FackMarksDeepHolesLost) {
  send_n(10);
  // SACK seg 5 (4000-5000): holes more than dupthresh segments below the
  // SACK frontier are lost (starts 0 and 1000: 5000 - start > 3000).
  sb.on_ack(make_ack(0, {{4000, 5000}}), 1_ms);
  const int newly = sb.update_loss_marks(3, /*fack=*/true);
  EXPECT_EQ(newly, 2);
  EXPECT_TRUE(sb.first_hole_lost());
}

TEST_F(ScoreboardTest, FackMarkingIsProgressive) {
  // Linux tcp_mark_head_lost: with fackets_out segments up to the SACK
  // frontier, the first fackets_out - dupthresh are lost. Each new SACK
  // exposes one more hole.
  send_n(10);
  sb.on_ack(make_ack(0, {{4000, 5000}}), 1_ms);
  sb.update_loss_marks(3, true);
  EXPECT_EQ(sb.lost_segment_count(), 2);  // fackets 5 - dupthresh 3
  sb.on_ack(make_ack(0, {{4000, 6000}}), 2_ms);
  sb.update_loss_marks(3, true);
  EXPECT_EQ(sb.lost_segment_count(), 3);
  sb.on_ack(make_ack(0, {{4000, 7000}}), 3_ms);
  sb.update_loss_marks(3, true);
  EXPECT_EQ(sb.lost_segment_count(), 4);  // all four holes now exposed
}

TEST_F(ScoreboardTest, Rfc6675MarkingNeedsEnoughSackedBytes) {
  send_n(10);
  sb.on_ack(make_ack(0, {{1000, 2000}}), 1_ms);
  EXPECT_EQ(sb.update_loss_marks(3, /*fack=*/false), 0);
  sb.on_ack(make_ack(0, {{1000, 3000}}), 2_ms);
  EXPECT_EQ(sb.update_loss_marks(3, false), 0);
  sb.on_ack(make_ack(0, {{1000, 4000}}), 3_ms);
  // Now > (3-1)*MSS bytes are SACKed above segment 0.
  EXPECT_EQ(sb.update_loss_marks(3, false), 1);
}

TEST_F(ScoreboardTest, PipeCountsRetransmittedLostSegment) {
  send_n(10);
  sb.on_ack(make_ack(0, {{4000, 7000}}), 1_ms);
  sb.update_loss_marks(3, true);
  const uint64_t pipe_marked = sb.pipe();
  EXPECT_EQ(pipe_marked, (10 - 3 - 4) * kMss);  // 3 sacked + 4 lost excluded
  sb.on_retransmit(0, 2_ms, 10000, true);
  EXPECT_EQ(sb.pipe(), pipe_marked + kMss);  // retransmission is in flight
}

TEST_F(ScoreboardTest, NextRetransmitCandidateIsLowestLost) {
  send_n(10);
  sb.on_ack(make_ack(0, {{4000, 5000}}), 1_ms);
  sb.update_loss_marks(3, true);
  const SegRecord* c = sb.next_retransmit_candidate();
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->start, 0u);
  sb.on_retransmit(0, 2_ms, 10000, true);
  c = sb.next_retransmit_candidate();
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->start, 1000u);
}

TEST_F(ScoreboardTest, LostRetransmitDetectedWhenLaterDataSacked) {
  send_n(10);
  sb.on_ack(make_ack(0, {{4000, 5000}}), 1_ms);
  sb.update_loss_marks(3, true);
  // Retransmit seg 0 when snd.nxt is 10000; send 2 more new segments.
  sb.on_retransmit(0, 2_ms, 10000, true);
  send_n(2, 3_ms);  // bytes 10000-12000, first sent after the retransmit
  // SACK of data below snd.nxt-at-retransmit proves nothing.
  auto out = sb.on_ack(make_ack(0, {{4000, 6000}}), 10_ms);
  EXPECT_EQ(out.lost_retransmits_detected, 0);
  // SACK of the data sent after the retransmission: retransmit was lost.
  out = sb.on_ack(make_ack(0, {{10000, 11000}}), 20_ms);
  EXPECT_EQ(out.lost_retransmits_detected, 1);
  EXPECT_EQ(out.lost_fast_retransmits_detected, 1);
  // The segment is eligible for retransmission again and leaves pipe.
  const SegRecord* c = sb.next_retransmit_candidate();
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->start, 0u);
}

TEST_F(ScoreboardTest, ReorderingDetectedWhenPresumedLostArrives) {
  send_n(10);
  sb.on_ack(make_ack(0, {{4000, 5000}}), 1_ms);
  sb.update_loss_marks(3, true);  // segs 1-3 marked lost
  EXPECT_EQ(sb.dupthresh(), 3);
  EXPECT_TRUE(sb.fack_enabled());
  // Seg 1 (bytes 0-1000) then arrives via cumulative ACK: reordering.
  auto out = sb.on_ack(make_ack(1000), 5_ms);
  EXPECT_EQ(out.reorder_distance_segs, 5);  // (SACK frontier 5000 - 0) / MSS
  // Loss detection adapts: dupthresh = clamp(5, 3, 127), FACK off.
  EXPECT_TRUE(sb.reordering_seen());
  EXPECT_EQ(sb.dupthresh(), 5);
  EXPECT_FALSE(sb.fack_enabled());
}

TEST_F(ScoreboardTest, ReorderingDetectedWhenPresumedLostSacked) {
  send_n(10);
  sb.on_ack(make_ack(0, {{4000, 5000}}), 1_ms);
  sb.update_loss_marks(3, true);
  auto out = sb.on_ack(make_ack(0, {{1000, 2000}}), 5_ms);
  EXPECT_GT(out.reorder_distance_segs, 0);
}

TEST_F(ScoreboardTest, NoReorderingSignalForRetransmittedSegment) {
  send_n(10);
  sb.on_ack(make_ack(0, {{4000, 5000}}), 1_ms);
  sb.update_loss_marks(3, true);
  sb.on_retransmit(0, 2_ms, 10000, true);
  // Arrival is explained by the retransmission, not reordering.
  auto out = sb.on_ack(make_ack(1000), 5_ms);
  EXPECT_EQ(out.reorder_distance_segs, 0);
}

TEST_F(ScoreboardTest, KarnRttSampleOnlyFromFreshData) {
  send_n(10, 0_ms);
  auto out = sb.on_ack(make_ack(1000), 80_ms);
  ASSERT_TRUE(out.rtt_sample.has_value());
  EXPECT_EQ(out.rtt_sample->ms(), 80);

  // A retransmitted segment yields no sample.
  sb.on_ack(make_ack(0 /*noop*/), 81_ms);
  sb.update_loss_marks(3, true);
  sb.on_retransmit(1000, 90_ms, 10000, true);
  out = sb.on_ack(make_ack(2000), 150_ms);
  EXPECT_FALSE(out.rtt_sample.has_value());
}

TEST_F(ScoreboardTest, TimeoutMarksEverythingLost) {
  send_n(10);
  sb.on_ack(make_ack(0, {{4000, 5000}}), 1_ms);
  sb.on_timeout_mark_all_lost();
  EXPECT_EQ(sb.lost_segment_count(), 9);  // all but the SACKed one
  EXPECT_EQ(sb.pipe(), 0u);               // nothing considered in flight
}

TEST_F(ScoreboardTest, DsackReportedInOutcome) {
  send_n(4);
  auto out = sb.on_ack(
      make_ack(2000, {}, net::SackBlock{0, 1000}), 5_ms);
  EXPECT_TRUE(out.saw_dsack);
  ASSERT_TRUE(out.dsack_block.has_value());
  EXPECT_EQ(out.dsack_block->start, 0u);
}

TEST_F(ScoreboardTest, MarkFirstHoleLost) {
  send_n(5);
  sb.on_ack(make_ack(0, {{2000, 3000}}), 1_ms);
  EXPECT_FALSE(sb.first_hole_lost());
  sb.mark_first_hole_lost();
  EXPECT_TRUE(sb.first_hole_lost());
  const SegRecord* c = sb.next_retransmit_candidate();
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->start, 0u);
}

TEST_F(ScoreboardTest, TotalSackedBytes) {
  send_n(10);
  sb.on_ack(make_ack(0, {{2000, 4000}, {6000, 7000}}), 1_ms);
  EXPECT_EQ(sb.total_sacked_bytes(), 3 * kMss);
}

}  // namespace
}  // namespace prr::tcp
