#include "sim/rng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace prr::sim {
namespace {

// Mt64's incremental twist must reproduce the std::mt19937_64 output
// stream bit for bit — all recorded experiment digests depend on it.
// Spans multiple 312-word state blocks to cover the wrap-around words
// (i+1 and i+156 crossing the block boundary).
TEST(Mt64, MatchesStdMt19937_64Exactly) {
  for (uint64_t seed : {0ULL, 1ULL, 5489ULL, 0x9E3779B97F4A7C15ULL,
                        0xFFFFFFFFFFFFFFFFULL, 20110501ULL}) {
    std::mt19937_64 ref(seed);
    Mt64 lazy(seed);
    for (int i = 0; i < 2000; ++i) {
      ASSERT_EQ(ref(), lazy()) << "seed=" << seed << " draw " << i;
    }
  }
}

// A fresh engine seeds its state lazily, through x[i+156] before draw i,
// and is fully seeded after draw 155. The draw counts straddle that
// point and the first block wrap (draw 312 reads words twisted in this
// block).
TEST(Mt64, PrefixSeedingMatchesStdAroundSeedAndBlockEdges) {
  for (uint64_t seed : {0ULL, 7ULL, 20110501ULL, 0xFFFFFFFFFFFFFFFFULL}) {
    for (int draws : {155, 156, 157, 311, 312, 313}) {
      std::mt19937_64 ref(seed);
      Mt64 lazy(seed);
      for (int i = 0; i < draws; ++i) {
        ASSERT_EQ(ref(), lazy())
            << "seed=" << seed << " draws=" << draws << " draw " << i;
      }
    }
  }
}

// Draws `n` raw engine words (a full-range uniform_int returns the
// engine output as is) from a copy of `rng`, leaving `rng` untouched.
std::vector<uint64_t> draw_bits(Rng rng, int n) {
  std::vector<uint64_t> out;
  for (int i = 0; i < n; ++i) out.push_back(rng.uniform_int(0, ~0ULL));
  return out;
}

// Priming seeds part of the state early; every stream must then draw the
// same values, draw for draw, as an unprimed twin. Groups of 1-4 streams
// (one lockstep group) and 5 (two groups), streams that already drew k
// values, and streams primed twice, with or without draws between.
TEST(Rng, PrimeLeavesEveryStreamUnchanged) {
  const Rng root(20110501);
  for (std::size_t width = 1; width <= 5; ++width) {
    for (int k : {0, 1, 155, 156, 400}) {
      std::vector<Rng> primed, twins;
      for (std::size_t s = 0; s < width; ++s) {
        primed.push_back(root.fork(s));
        twins.push_back(root.fork(s));
      }
      // In groups of two or more, stream 0 stays fresh; the others have
      // drawn k values (their twins too).
      for (std::size_t s = width > 1 ? 1 : 0; s < width; ++s) {
        for (int i = 0; i < k; ++i) {
          primed[s].uniform();
          twins[s].uniform();
        }
      }
      std::vector<Rng*> ptrs;
      for (Rng& r : primed) ptrs.push_back(&r);
      switch (width) {
        case 1: Rng::prime({ptrs[0]}); break;
        case 2: Rng::prime({ptrs[0], nullptr, ptrs[1]}); break;
        case 3: Rng::prime({ptrs[0], ptrs[1], ptrs[2]}); break;
        case 4: Rng::prime({ptrs[0], ptrs[1], ptrs[2], ptrs[3]}); break;
        case 5:
          Rng::prime({ptrs[0], ptrs[1], ptrs[2], ptrs[3], ptrs[4]});
          break;
      }
      // Primed twice: a no-op the second time.
      Rng::prime({ptrs[0]});
      for (std::size_t s = 0; s < width; ++s) {
        ASSERT_EQ(draw_bits(twins[s], 700), draw_bits(primed[s], 700))
            << "width=" << width << " k=" << k << " stream " << s;
      }
    }
  }

  // Primed, drawn from, primed again.
  Rng a = root.fork(9), b = root.fork(9);
  Rng::prime({&a});
  for (int i = 0; i < 3; ++i) ASSERT_EQ(b.uniform(), a.uniform());
  Rng::prime({&a});
  ASSERT_EQ(draw_bits(b, 700), draw_bits(a, 700));
}

// A copy takes only the cursor and the seeded prefix, so a copy taken
// before materialization, inside the prefix, or after full seeding must
// draw the same stream as its source.
TEST(Rng, CopiesDrawIdenticalStreams) {
  for (int k : {-1, 0, 1, 100, 155, 156, 157, 312, 400}) {
    Rng src = Rng(42).fork(7);
    if (k >= 0) Rng::prime({&src});  // k = -1: never materialized
    for (int i = 0; i < k; ++i) src.uniform();
    Rng copied(src);
    Rng assigned(1);
    assigned.uniform();  // assignment over a materialized engine
    assigned = src;
    const std::vector<uint64_t> expect = draw_bits(src, 700);
    ASSERT_EQ(expect, draw_bits(copied, 700)) << "k=" << k;
    ASSERT_EQ(expect, draw_bits(assigned, 700)) << "k=" << k;
  }
  // Unprimed, mid-prefix (seeded through x[i+156] only).
  Rng src = Rng(42).fork(8);
  for (int i = 0; i < 10; ++i) src.uniform();
  Rng copied = src;
  ASSERT_EQ(draw_bits(src, 700), draw_bits(copied, 700));
}

// The open-coded uniform/bernoulli/exponential fast paths must emit the
// exact bits the std distributions emitted (every recorded experiment
// digest depends on the draw values, not just the engine stream). Each
// comparison drives a std distribution over a fresh std::mt19937_64
// clone of the Rng's engine position.
TEST(Rng, FastPathsMatchStdDistributionsExactly) {
  for (uint64_t seed : {0ULL, 42ULL, 20110501ULL, 0x9E3779B97F4A7C15ULL}) {
    std::mt19937_64 ref(seed);

    Rng uni(seed);
    for (int i = 0; i < 500; ++i) {
      ASSERT_EQ(std::uniform_real_distribution<double>(0.0, 1.0)(ref),
                uni.uniform())
          << "seed=" << seed << " draw " << i;
    }

    ref.seed(seed);
    Rng rng_range(seed);
    for (int i = 0; i < 500; ++i) {
      ASSERT_EQ(std::uniform_real_distribution<double>(2.5, 17.0)(ref),
                rng_range.uniform(2.5, 17.0));
    }

    ref.seed(seed);
    Rng bern(seed);
    // p spans 0.0 .. 1.0 inclusive. The degenerate endpoints must consume
    // NO engine draw (the early-outs predate the golden digests, so their
    // draw-skipping is frozen behavior); the reference mirrors that, and
    // the in-stream comparison catches any desynchronization either way.
    for (int i = 0; i < 500; ++i) {
      const double p = (i % 101) / 100.0;
      const bool expect = p <= 0.0 ? false
                          : p >= 1.0
                              ? true
                              : std::bernoulli_distribution(p)(ref);
      ASSERT_EQ(expect, bern.bernoulli(p))
          << "seed=" << seed << " draw " << i;
    }

    ref.seed(seed);
    Rng expo(seed);
    for (int i = 0; i < 500; ++i) {
      const double mean = 0.5 + i * 3.25;
      ASSERT_EQ(
          std::exponential_distribution<double>(1.0 / mean)(ref),
          expo.exponential(mean))
          << "seed=" << seed << " draw " << i;
    }
  }
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += a.uniform() == b.uniform();
  EXPECT_LT(same, 5);
}

TEST(Rng, ForkIsDeterministicAndIndependent) {
  Rng root(42);
  Rng f1 = root.fork(7);
  Rng f2 = Rng(42).fork(7);
  for (int i = 0; i < 50; ++i) EXPECT_DOUBLE_EQ(f1.uniform(), f2.uniform());

  // Different streams diverge.
  Rng g1 = root.fork(1), g2 = root.fork(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += g1.uniform() == g2.uniform();
  EXPECT_LT(same, 5);
}

TEST(Rng, ForkDoesNotAdvanceParent) {
  Rng a(9);
  Rng b(9);
  (void)a.fork(3);
  EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(Rng, UniformRange) {
  Rng r(5);
  for (int i = 0; i < 1000; ++i) {
    const double v = r.uniform(2.0, 3.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng r(5);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const uint64_t v = r.uniform_int(3, 6);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 6u);
    saw_lo |= v == 3;
    saw_hi |= v == 6;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, BernoulliEdgeCases) {
  Rng r(5);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(r.bernoulli(0.0));
    EXPECT_TRUE(r.bernoulli(1.0));
  }
}

TEST(Rng, BernoulliApproximatesProbability) {
  Rng r(17);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += r.bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, ExponentialMean) {
  Rng r(11);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += r.exponential(250.0);
  EXPECT_NEAR(sum / n, 250.0, 10.0);
}

TEST(Rng, LognormalWithMeanHitsMean) {
  Rng r(13);
  double sum = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += r.lognormal_with_mean(7500.0, 1.0);
  EXPECT_NEAR(sum / n, 7500.0, 500.0);
}

TEST(Rng, GeometricMeanAndSupport) {
  Rng r(19);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const int v = r.geometric(3.1);
    EXPECT_GE(v, 1);
    sum += v;
  }
  EXPECT_NEAR(sum / n, 3.1, 0.15);
  // Degenerate mean clamps to 1.
  EXPECT_EQ(r.geometric(0.5), 1);
}

TEST(Rng, ParetoScaleIsMinimum) {
  Rng r(23);
  for (int i = 0; i < 1000; ++i) EXPECT_GE(r.pareto(10.0, 2.0), 10.0);
}

}  // namespace
}  // namespace prr::sim
