#include "tcp/recovery/recovery.h"

#include <gtest/gtest.h>

#include <variant>

namespace prr::tcp {
namespace {

constexpr uint32_t kMss = 1000;

TEST(Rfc3517Policy, CwndPinnedToSsthresh) {
  Rfc3517Recovery p;
  p.on_enter(20 * kMss, 10 * kMss, 20 * kMss, kMss);
  EXPECT_EQ(p.on_ack(kMss, 15 * kMss), 10 * kMss);
  EXPECT_EQ(p.on_ack(kMss, 5 * kMss), 10 * kMss);
  EXPECT_EQ(p.exit_cwnd(3 * kMss, 10 * kMss), 10 * kMss);
}

TEST(Rfc3517Policy, HalfRttSilence) {
  // With pipe above cwnd the sender may transmit nothing until half the
  // window's ACKs pass: cwnd - pipe stays negative.
  Rfc3517Recovery p;
  p.on_enter(20 * kMss, 10 * kMss, 20 * kMss, kMss);
  uint64_t pipe = 15 * kMss;
  int acks_before_first_allowance = 0;
  while (p.on_ack(kMss, pipe) <= pipe) {
    pipe -= kMss;  // each dupack drains one segment
    ++acks_before_first_allowance;
  }
  EXPECT_GE(acks_before_first_allowance, 5);
}

TEST(Rfc3517Policy, BurstWhenPipeCollapses) {
  // The RFC's problem 2: cwnd - pipe can be huge after burst losses.
  Rfc3517Recovery p;
  p.on_enter(20 * kMss, 10 * kMss, 20 * kMss, kMss);
  const uint64_t cwnd = p.on_ack(kMss, 2 * kMss);
  EXPECT_EQ(cwnd - 2 * kMss, 8 * kMss);  // 8-segment burst allowance
}

TEST(RateHalvingPolicy, DecrementsEveryOtherAck) {
  RateHalvingRecovery p;
  p.on_enter(20 * kMss, 10 * kMss, 20 * kMss, kMss);
  // Large pipe so the pipe+1 clamp is not binding.
  uint64_t c1 = p.on_ack(kMss, 30 * kMss);
  uint64_t c2 = p.on_ack(kMss, 30 * kMss);
  uint64_t c3 = p.on_ack(kMss, 30 * kMss);
  uint64_t c4 = p.on_ack(kMss, 30 * kMss);
  EXPECT_EQ(c1, 20 * kMss);  // odd ack: no decrement
  EXPECT_EQ(c2, 19 * kMss);
  EXPECT_EQ(c3, 19 * kMss);
  EXPECT_EQ(c4, 18 * kMss);
}

TEST(RateHalvingPolicy, ClampsToPipePlusOne) {
  RateHalvingRecovery p;
  p.on_enter(20 * kMss, 10 * kMss, 20 * kMss, kMss);
  EXPECT_EQ(p.on_ack(kMss, 5 * kMss), 6 * kMss);
}

TEST(RateHalvingPolicy, NeverDecrementsBelowSsthreshByHalving) {
  RateHalvingRecovery p;
  p.on_enter(20 * kMss, 10 * kMss, 12 * kMss, kMss);
  uint64_t cwnd = 12 * kMss;
  for (int i = 0; i < 50; ++i) cwnd = p.on_ack(kMss, 30 * kMss);
  EXPECT_EQ(cwnd, 10 * kMss);  // floor at ssthresh (clamp not binding)
}

TEST(RateHalvingPolicy, ExitKeepsSmallWindow) {
  // The paper's core complaint: Linux exits recovery at pipe + 1.
  RateHalvingRecovery p;
  p.on_enter(20 * kMss, 10 * kMss, 20 * kMss, kMss);
  p.on_ack(kMss, 1 * kMss);
  EXPECT_EQ(p.exit_cwnd(1 * kMss, 2 * kMss), 2 * kMss);
}

TEST(PrrPolicy, CwndIsPipePlusSndcnt) {
  PrrRecovery p;
  p.on_enter(20 * kMss, 10 * kMss, 20 * kMss, kMss);
  // Byte-exact: first delivery of 1000 allows 500 (ratio 1/2) — not yet
  // a whole segment, so a quantizing sender holds back.
  const uint64_t cwnd = p.on_ack(kMss, 15 * kMss);
  EXPECT_EQ(cwnd, 15 * kMss + kMss / 2);
  // Second delivery: allowance reaches one full segment.
  const uint64_t cwnd2 = p.on_ack(kMss, 15 * kMss);
  EXPECT_EQ(cwnd2, 16 * kMss);
  p.on_sent(kMss);
  const uint64_t cwnd3 = p.on_ack(kMss, 15 * kMss);
  EXPECT_EQ(cwnd3, 15 * kMss + kMss / 2);  // back to the half allowance
}

TEST(PrrPolicy, ExitAtSsthresh) {
  PrrRecovery p;
  p.on_enter(20 * kMss, 10 * kMss, 20 * kMss, kMss);
  EXPECT_EQ(p.exit_cwnd(2 * kMss, 3 * kMss), 10 * kMss);
}

TEST(PrrPolicy, NamesReflectBound) {
  for (const core::ReductionBound bound :
       {core::ReductionBound::kSlowStart, core::ReductionBound::kConservative,
        core::ReductionBound::kUnlimited}) {
    EXPECT_EQ(PrrRecovery(bound).state().bound(), bound);
  }
}

TEST(PolicyFactory, MakesEachKind) {
  EXPECT_TRUE(std::holds_alternative<Rfc3517Recovery>(
      make_recovery_policy(RecoveryKind::kRfc3517)));
  EXPECT_TRUE(std::holds_alternative<RateHalvingRecovery>(
      make_recovery_policy(RecoveryKind::kLinuxRateHalving)));
  const RecoveryPolicy prr = make_recovery_policy(
      RecoveryKind::kPrr, core::ReductionBound::kConservative);
  ASSERT_TRUE(std::holds_alternative<PrrRecovery>(prr));
  EXPECT_EQ(std::get<PrrRecovery>(prr).state().bound(),
            core::ReductionBound::kConservative);
}

// Cross-policy property: on the same smooth drain (one delivered segment
// per ack, sends refill pipe), every policy's cwnd converges into
// [ssthresh-1, ssthresh+1] by the time the window's ACKs are exhausted.
class PolicyConvergence
    : public ::testing::TestWithParam<RecoveryKind> {};

TEST_P(PolicyConvergence, ConvergesNearSsthreshUnderLightLoss) {
  std::visit(
      [](auto policy) {
        const uint64_t flight = 20 * kMss, ssthresh = 10 * kMss;
        policy.on_enter(flight, ssthresh, flight, kMss);
        uint64_t pipe = 19 * kMss;  // one segment lost
        uint64_t cwnd = flight;
        for (int i = 0; i < 19; ++i) {
          cwnd = policy.on_ack(kMss, pipe);
          if (cwnd > pipe) {
            const uint64_t sent = cwnd - pipe;
            policy.on_sent(sent);
            pipe += sent;
          }
          pipe -= kMss;  // the next ack drains one
        }
        const uint64_t exit = policy.exit_cwnd(pipe, cwnd);
        EXPECT_GE(exit, ssthresh - kMss);
        EXPECT_LE(exit, ssthresh + kMss);
      },
      make_recovery_policy(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, PolicyConvergence,
                         ::testing::Values(RecoveryKind::kRfc3517,
                                           RecoveryKind::kLinuxRateHalving,
                                           RecoveryKind::kPrr));

}  // namespace
}  // namespace prr::tcp
