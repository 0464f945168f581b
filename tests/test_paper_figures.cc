// Integration tests reproducing the qualitative claims of the paper's
// Figures 2-4 on the §4.1 testbed (100 ms RTT, 1.2 Mbps, MSS 1000).
#include <gtest/gtest.h>

#include "exp/scenarios.h"

namespace prr::exp {
namespace {

using namespace prr::sim::literals;
using tcp::RecoveryKind;

TEST(Fig2, PrrRecoversWithFourRetransmitsAndNoTimeout) {
  FigureRun run = run_figure_scenario(FigureScenario::fig2(
      RecoveryKind::kPrr));
  EXPECT_EQ(run.metrics.retransmits_total, 4u);
  EXPECT_EQ(run.metrics.fast_retransmits, 4u);
  EXPECT_EQ(run.metrics.timeouts_total, 0u);
  EXPECT_EQ(run.metrics.fast_recovery_events, 1u);
}

TEST(Fig2, PrrExitsRecoveryAtSsthresh) {
  FigureRun run = run_figure_scenario(FigureScenario::fig2(
      RecoveryKind::kPrr));
  ASSERT_EQ(run.recovery_log.count(), 1u);
  const auto& e = run.recovery_log.events()[0];
  EXPECT_TRUE(e.completed);
  // Reno halves IW20 -> ssthresh 10 segments; PRR converges exactly.
  EXPECT_EQ(e.ssthresh, 10'000u);
  EXPECT_EQ(e.cwnd_after_exit, 10'000u);
  EXPECT_FALSE(e.slow_start_after);
}

TEST(Fig2, PrrDeliversSecondResponseInOneRtt) {
  FigureRun run = run_figure_scenario(FigureScenario::fig2(
      RecoveryKind::kPrr));
  // The 10 kB written at 500 ms fits the post-recovery cwnd of 10: all
  // ten segments go out back-to-back and are ACKed within ~2 RTT
  // (serialization of 10 segments ~69 ms + 100 ms RTT + delack).
  EXPECT_LT(run.all_acked_at.ms(), 500 + 250);
}

TEST(Fig2, LinuxEndsRecoveryWithTinyWindowAndSlowStarts) {
  FigureRun run = run_figure_scenario(FigureScenario::fig2(
      RecoveryKind::kLinuxRateHalving));
  ASSERT_GE(run.recovery_log.count(), 1u);
  const auto& e = run.recovery_log.events()[0];
  EXPECT_TRUE(e.completed);
  // cwnd pinned to pipe+1 -> tiny exit window, far below ssthresh.
  EXPECT_LE(e.cwnd_after_exit, 3000u);
  EXPECT_TRUE(e.slow_start_after);
  // The second response needs several RTTs of slow start: much later
  // than PRR's single-RTT delivery.
  FigureRun prr = run_figure_scenario(FigureScenario::fig2(
      RecoveryKind::kPrr));
  EXPECT_GT(run.all_acked_at.ms(), prr.all_acked_at.ms() + 150);
}

TEST(Fig2, Rfc3517ShowsHalfRttSilenceAfterFirstRetransmit) {
  // The time-sequence trace is fed from the flight recorder.
  FigureRun run = run_figure_scenario(FigureScenario::fig2(
      RecoveryKind::kRfc3517));
  const auto retx = run.trace.retransmits();
  ASSERT_GE(retx.size(), 2u);
  // First fast retransmit goes out immediately on entry, then nothing is
  // allowed until pipe falls below cwnd: a gap of several ACK times.
  const sim::Time gap = retx[1].at - retx[0].at;
  EXPECT_GT(gap.ms(), 25);  // >> one ACK interval (~7 ms)
  // PRR spaces the same retransmissions evenly (alternate ACKs).
  FigureRun prr = run_figure_scenario(FigureScenario::fig2(
      RecoveryKind::kPrr));
  const auto prr_retx = prr.trace.retransmits();
  ASSERT_GE(prr_retx.size(), 2u);
  EXPECT_LT((prr_retx[1].at - prr_retx[0].at).ms(), gap.ms());
}

TEST(Fig2, AllThreeRecoverAllData) {
  for (auto kind : {RecoveryKind::kPrr, RecoveryKind::kLinuxRateHalving,
                    RecoveryKind::kRfc3517}) {
    FigureRun run = run_figure_scenario(FigureScenario::fig2(kind));
    EXPECT_GT(run.all_acked_at.ms(), 0) << static_cast<int>(kind);
    EXPECT_EQ(run.metrics.timeouts_total, 0u) << static_cast<int>(kind);
  }
}

TEST(Fig3, PrrSwitchesToSlowStartPartUnderHeavyLoss) {
  FigureRun run = run_figure_scenario(FigureScenario::fig3(
      RecoveryKind::kPrr));
  // 10 of 20 segments dropped: pipe falls below ssthresh(10) during
  // recovery; the slow-start part must rebuild it without timeouts.
  EXPECT_EQ(run.metrics.timeouts_total, 0u);
  EXPECT_EQ(run.metrics.retransmits_total, 10u);
  EXPECT_GT(run.all_acked_at.ms(), 0);
  ASSERT_GE(run.recovery_log.count(), 1u);
  const auto& e = run.recovery_log.events()[0];
  // At entry only part of the first loss cluster is marked (progressive
  // FACK marking); the second cluster drives pipe below ssthresh
  // mid-recovery.
  EXPECT_LE(e.pipe_at_start, 17'000u);
  EXPECT_GE(e.retransmits, 10u);
}

TEST(Fig3, PrrSlowStartPartSendsUpToTwoPerAck) {
  FigureRun run = run_figure_scenario(FigureScenario::fig3(
      RecoveryKind::kPrr));
  // "PRR operates in slow start part and transmits two segments for
  // every ACK" — per-ACK bursts inside recovery stay small. The one
  // larger send happens on the ACK that reveals the second loss cluster
  // (banked allowance released, bounded by ssthresh - pipe), still far
  // from RFC 3517's arbitrary bursts.
  ASSERT_GE(run.recovery_log.count(), 1u);
  EXPECT_LE(run.recovery_log.events()[0].max_burst_segments, 4u);
}

TEST(Fig3, PrrMaintainsAckClockingNoLargeBursts) {
  // §4.3 property 1 contrast: when pipe collapses below ssthresh,
  // RFC 3517 fills the hole in one multi-segment burst, PRR does not.
  FigureRun prr = run_figure_scenario(FigureScenario::fig3(
      RecoveryKind::kPrr));
  FigureRun rfc = run_figure_scenario(FigureScenario::fig3(
      RecoveryKind::kRfc3517));
  ASSERT_GE(prr.recovery_log.count(), 1u);
  ASSERT_GE(rfc.recovery_log.count(), 1u);
  EXPECT_LT(prr.recovery_log.events()[0].max_burst_segments,
            rfc.recovery_log.events()[0].max_burst_segments);
}

TEST(Fig4, PrrBanksSendingOpportunitiesAcrossAppStall) {
  FigureRun run = run_figure_scenario(FigureScenario::fig4(
      RecoveryKind::kPrr));
  // One loss in 20 segments; the app writes 10 more mid-recovery. The
  // catch-up burst is bounded by ratio*(prr_delivered - prr_out): ~3
  // segments for Reno, then ACK-paced. No timeout, single recovery.
  EXPECT_EQ(run.metrics.timeouts_total, 0u);
  EXPECT_EQ(run.metrics.fast_recovery_events, 1u);
  EXPECT_EQ(run.metrics.retransmits_total, 1u);
  const int burst = run.trace.max_burst(2_ms);
  EXPECT_GE(burst, 2);   // the bank is released as a small burst
  EXPECT_LE(burst, 21);  // bounded: not the whole window at once
  ASSERT_GE(run.recovery_log.count(), 1u);
  EXPECT_GE(run.recovery_log.events()[0].max_burst_segments, 2u);
}

TEST(Fig4, SecondWriteDeliveredPromptlyDespiteStall) {
  FigureRun run = run_figure_scenario(FigureScenario::fig4(
      RecoveryKind::kPrr));
  EXPECT_GT(run.all_acked_at.ms(), 0);
  EXPECT_LT(run.all_acked_at.ms(), 1200);
}

TEST(Scenarios, TracesAreNonEmptyAndRenderable) {
  // The time-sequence trace is fed from the flight recorder.
  FigureRun run = run_figure_scenario(FigureScenario::fig2(
      RecoveryKind::kPrr));
  EXPECT_GT(run.trace.events().size(), 30u);
  const std::string ascii = run.trace.render_ascii(40);
  EXPECT_NE(ascii.find('R'), std::string::npos);
  EXPECT_NE(ascii.find('#'), std::string::npos);
  EXPECT_NE(ascii.find('s'), std::string::npos);
}

}  // namespace
}  // namespace prr::exp
