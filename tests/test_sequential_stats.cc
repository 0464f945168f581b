// Property tests for the always-valid sequential layer
// (stats/sequential.h). The load-bearing claim is the any-time
// guarantee: the scoreboard peeks at the confidence sequence after
// EVERY window, and the false-promotion rate must still be bounded by
// alpha — the exact property a fixed-N test loses under peeking.
#include <gtest/gtest.h>

#include <cmath>

#include "sim/rng.h"
#include "stats/sequential.h"

using namespace prr;

namespace {

TEST(ConfidenceSequence, AaFalsePromotionRateBoundedByAlpha) {
  // A/A: both arms identical, observations are pure N(0,1) noise. Peek
  // after every observation; count replications where ANY peek rejects.
  constexpr int kReps = 400;
  constexpr int kObs = 400;
  stats::ConfidenceSequence::Config cfg;
  cfg.alpha = 0.05;
  int false_promotions = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    sim::Rng rng = sim::Rng(991).fork(static_cast<uint64_t>(rep));
    stats::ConfidenceSequence cs(cfg);
    bool rejected = false;
    for (int i = 0; i < kObs && !rejected; ++i) {
      cs.observe(rng.normal(0.0, 1.0));
      rejected = cs.rejects_zero();  // any-time peeking
    }
    if (rejected) ++false_promotions;
  }
  // E[false promotions] <= kReps * alpha = 20 by Ville's inequality
  // (conservative in practice); 12 is ~2.7 binomial sigmas of slack so
  // the test doesn't flake on its fixed seed family.
  EXPECT_LE(false_promotions, 32)
      << "any-time peeking inflated the false-promotion rate";
}

TEST(ConfidenceSequence, CoversTrueMeanAtEveryPeek) {
  // The CS must cover mu at EVERY n simultaneously with prob >= 1-alpha.
  constexpr int kReps = 200;
  constexpr int kObs = 300;
  constexpr double kMu = 0.3;
  stats::ConfidenceSequence::Config cfg;
  cfg.alpha = 0.05;
  int missed = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    sim::Rng rng = sim::Rng(1723).fork(static_cast<uint64_t>(rep));
    stats::ConfidenceSequence cs(cfg);
    bool miss = false;
    for (int i = 0; i < kObs; ++i) {
      cs.observe(rng.normal(kMu, 1.0));
      if (cs.lower() > kMu || cs.upper() < kMu) miss = true;
    }
    if (miss) ++missed;
  }
  // Nominal bound is kReps * alpha = 10; plug-in variance at small n
  // makes the sequence slightly approximate, hence the extra slack.
  EXPECT_LE(missed, 20) << "confidence sequence under-covers";
}

TEST(ConfidenceSequence, DetectsRealEffectAndLocalizesIt) {
  // Power: a genuine -0.5 sigma effect must be detected well within the
  // horizon, with the CS bracketing the true mean at detection time.
  constexpr int kReps = 100;
  constexpr int kObs = 400;
  constexpr double kMu = -0.5;
  int detected = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    sim::Rng rng = sim::Rng(37).fork(static_cast<uint64_t>(rep));
    stats::ConfidenceSequence cs;
    for (int i = 0; i < kObs; ++i) {
      cs.observe(rng.normal(kMu, 1.0));
      if (cs.rejects_zero()) break;
    }
    if (cs.rejects_zero()) {
      ++detected;
      EXPECT_LT(cs.upper(), 0.0);  // rejecting zero => CS excludes it
      EXPECT_LE(cs.lower(), kMu + 1e-12);
      EXPECT_GE(cs.upper(), kMu - 1.0);  // not absurdly displaced
    }
  }
  EXPECT_GE(detected, 90) << "mSPRT misses a half-sigma effect";
}

TEST(ConfidenceSequence, AlwaysValidPIsMonotoneNonIncreasing) {
  sim::Rng rng(5);
  stats::ConfidenceSequence cs;
  double prev = 1.0;
  for (int i = 0; i < 500; ++i) {
    cs.observe(rng.normal(0.2, 1.0));
    EXPECT_LE(cs.p_value(), prev + 1e-15);
    EXPECT_GE(cs.p_value(), 0.0);
    EXPECT_LE(cs.p_value(), 1.0);
    prev = cs.p_value();
  }
}

TEST(ConfidenceSequence, UnderpoweredBeforeMinN) {
  // Before min_n the radius is infinite and nothing rejects, no matter
  // how extreme the stream — the variance estimate has no support yet.
  stats::ConfidenceSequence::Config cfg;
  cfg.min_n = 10;
  stats::ConfidenceSequence cs(cfg);
  sim::Rng rng(8);
  for (int i = 0; i < 9; ++i) {
    cs.observe(-50.0 + rng.normal(0.0, 0.1));
    EXPECT_FALSE(cs.rejects_zero());
    EXPECT_TRUE(std::isinf(cs.radius()));
  }
  // ...and shortly after the gate the same stream rejects decisively.
  for (int i = 0; i < 20; ++i) cs.observe(-50.0 + rng.normal(0.0, 0.1));
  EXPECT_TRUE(cs.rejects_zero());
  EXPECT_TRUE(std::isfinite(cs.radius()));
  EXPECT_LT(cs.upper(), 0.0);
}

TEST(ConfidenceSequence, DeterministicReplay) {
  // Same observation stream => identical statistic stream (a claim gate
  // fed from a thread-count-invariant fold leans on this being pure
  // double arithmetic).
  sim::Rng rng_a(77), rng_b(77);
  stats::ConfidenceSequence a, b;
  for (int i = 0; i < 200; ++i) {
    a.observe(rng_a.normal(0.1, 2.0));
    b.observe(rng_b.normal(0.1, 2.0));
    ASSERT_EQ(a.p_value(), b.p_value());
    ASSERT_EQ(a.log_e_value(), b.log_e_value());
    ASSERT_EQ(a.to_json(), b.to_json());
  }
}

}  // namespace
