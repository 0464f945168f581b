#include "tcp/cc/congestion_control.h"

#include <gtest/gtest.h>

#include <variant>

namespace prr::tcp {
namespace {

using namespace prr::sim::literals;

constexpr uint32_t kMss = 1000;

TEST(NewRenoCc, SsthreshIsHalf) {
  NewReno cc(kMss);
  EXPECT_EQ(cc.ssthresh_after_loss(20 * kMss), 10 * kMss);
}

TEST(NewRenoCc, SsthreshFloorTwoMss) {
  NewReno cc(kMss);
  EXPECT_EQ(cc.ssthresh_after_loss(3 * kMss), 2 * kMss);
}

TEST(NewRenoCc, SlowStartGrowsByAckedCappedAtMss) {
  NewReno cc(kMss);
  EXPECT_EQ(cc.on_ack(4 * kMss, 100 * kMss, kMss, 0_ms), 5 * kMss);
  // Stretch ACK of 3 MSS still grows by at most 1 MSS per ACK (L=1).
  EXPECT_EQ(cc.on_ack(4 * kMss, 100 * kMss, 3 * kMss, 0_ms), 5 * kMss);
}

TEST(NewRenoCc, CongestionAvoidanceOneMssPerWindow) {
  NewReno cc(kMss);
  uint64_t cwnd = 10 * kMss;
  // One full window of ACKed data -> +1 MSS.
  for (int i = 0; i < 10; ++i) cwnd = cc.on_ack(cwnd, kMss, kMss, 0_ms);
  EXPECT_EQ(cwnd, 11 * kMss);
}

TEST(CubicCc, SsthreshIsSeventyPercent) {
  Cubic cc(kMss);
  EXPECT_EQ(cc.ssthresh_after_loss(20 * kMss), 14 * kMss);
}

TEST(CubicCc, SlowStartBelowSsthresh) {
  Cubic cc(kMss);
  EXPECT_EQ(cc.on_ack(4 * kMss, 10 * kMss, kMss, 0_ms), 5 * kMss);
}

TEST(CubicCc, GrowsBackTowardWmaxAfterReduction) {
  Cubic cc(kMss);
  uint64_t cwnd = 100 * kMss;
  const uint64_t ssthresh = cc.ssthresh_after_loss(cwnd);
  cwnd = ssthresh;  // after recovery
  // Feed ACKs over simulated time: the cubic function climbs back toward
  // w_max = 100 segments around t = K.
  sim::Time t = 0_ms;
  for (int i = 0; i < 3000; ++i) {
    t += 10_ms;
    cwnd = cc.on_ack(cwnd, ssthresh, kMss, t);
  }
  EXPECT_GT(cwnd, 95 * kMss);   // recovered most of the window
}

TEST(CubicCc, ConcaveThenConvex) {
  // Growth rate should slow near w_max (concave), then accelerate past it
  // (convex) — the defining CUBIC shape.
  Cubic cc(kMss);
  uint64_t cwnd = 50 * kMss;
  const uint64_t ssthresh = cc.ssthresh_after_loss(cwnd);
  cwnd = ssthresh;
  sim::Time t = 0_ms;
  std::vector<uint64_t> samples;
  for (int i = 0; i < 6000; ++i) {
    t += 10_ms;
    cwnd = cc.on_ack(cwnd, ssthresh, kMss, t);
    if (i % 1000 == 999) samples.push_back(cwnd);
  }
  // Monotone non-decreasing throughout.
  for (std::size_t i = 1; i < samples.size(); ++i)
    EXPECT_GE(samples[i], samples[i - 1]);
  EXPECT_GT(samples.back(), 50 * kMss);  // grows past w_max eventually
}

TEST(CubicCc, TimeoutResetsEpoch) {
  Cubic cc(kMss);
  cc.ssthresh_after_loss(100 * kMss);
  cc.on_timeout(1_s);
  // After a timeout the epoch restarts; growth resumes from scratch.
  const uint64_t cwnd = cc.on_ack(10 * kMss, 5 * kMss, kMss, 2_s);
  EXPECT_GE(cwnd, 10 * kMss);
  EXPECT_LT(cwnd, 12 * kMss);
}

TEST(GaimdCc, BetaControlsReduction) {
  Gaimd g7(kMss, 1.0, 0.7);
  EXPECT_EQ(g7.ssthresh_after_loss(10 * kMss), 7 * kMss);
  Gaimd g5(kMss, 1.0, 0.5);
  EXPECT_EQ(g5.ssthresh_after_loss(10 * kMss), 5 * kMss);
}

TEST(GaimdCc, AlphaControlsIncrease) {
  Gaimd cc(kMss, 2.0, 0.5);
  uint64_t cwnd = 10 * kMss;
  for (int i = 0; i < 10; ++i) cwnd = cc.on_ack(cwnd, kMss, kMss, 0_ms);
  EXPECT_EQ(cwnd, 12 * kMss);  // alpha = 2 segments per window
}

TEST(GaimdCc, FloorTwoMss) {
  Gaimd cc(kMss, 1.0, 0.1);
  EXPECT_EQ(cc.ssthresh_after_loss(5 * kMss), 2 * kMss);
}

TEST(BinomialCc, IiadDecreaseIsOneSegment) {
  // IIAD (k=1, l=0): decrease w -= beta * w^0 = 1 segment per event.
  Binomial cc(kMss, 1.0, 0.0, 1.0, 1.0);
  EXPECT_EQ(cc.ssthresh_after_loss(20 * kMss), 19 * kMss);
}

TEST(BinomialCc, SqrtDecreaseScalesWithRootOfWindow) {
  Binomial cc(kMss, 0.5, 0.5, 1.0, 1.0);
  // w = 25: decrease = sqrt(25) = 5 -> ssthresh 20.
  EXPECT_EQ(cc.ssthresh_after_loss(25 * kMss), 20 * kMss);
}

TEST(BinomialCc, AimdPointRecoversClassicBehaviour) {
  Binomial cc(kMss, 0.0, 1.0, 1.0, 0.5);
  EXPECT_EQ(cc.ssthresh_after_loss(20 * kMss), 10 * kMss);
}

TEST(BinomialCc, IiadIncreaseSlowsWithWindow) {
  // IIAD increase: alpha / w per RTT — at w = 10 a full window of ACKs
  // nets 1/10th of a segment, so ten windows' worth are needed per MSS.
  Binomial cc(kMss, 1.0, 0.0, 1.0, 1.0);
  uint64_t cwnd = 10 * kMss;
  int acks = 0;
  while (cwnd == 10 * kMss && acks < 2000) {
    cwnd = cc.on_ack(cwnd, kMss, kMss, sim::Time::zero());
    ++acks;
  }
  EXPECT_EQ(cwnd, 11 * kMss);
  EXPECT_NEAR(acks, 100, 5);  // ~w^2/alpha ACKs for one segment
}

TEST(BinomialCc, SlowStartBelowSsthresh) {
  Binomial cc(kMss);
  EXPECT_EQ(cc.on_ack(4 * kMss, 10 * kMss, kMss, sim::Time::zero()),
            5 * kMss);
}

TEST(BinomialCc, FloorAtTwoSegments) {
  Binomial cc(kMss, 0.0, 1.0, 1.0, 0.9);  // drastic decrease
  EXPECT_EQ(cc.ssthresh_after_loss(2 * kMss), 2 * kMss);
}

TEST(CcFactory, MakesEachKind) {
  EXPECT_TRUE(std::holds_alternative<NewReno>(
      make_congestion_control(CcKind::kNewReno, kMss)));
  EXPECT_TRUE(std::holds_alternative<Cubic>(
      make_congestion_control(CcKind::kCubic, kMss)));
  const CongestionControl gaimd =
      make_congestion_control(CcKind::kGaimd, kMss, /*gaimd_beta=*/0.6);
  ASSERT_TRUE(std::holds_alternative<Gaimd>(gaimd));
  EXPECT_EQ(std::get<Gaimd>(gaimd).beta(), 0.6);
  EXPECT_TRUE(std::holds_alternative<Binomial>(
      make_congestion_control(CcKind::kBinomial, kMss)));
}

}  // namespace
}  // namespace prr::tcp
