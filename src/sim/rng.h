// Deterministic random number generation for experiments. Every connection
// in an experiment arm derives its own Rng from a (run seed, stream id)
// pair so different recovery algorithms see identical sample paths
// (common random numbers), mirroring the paper's paired A/B design.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <limits>
#include <optional>
#include <random>

namespace prr::sim {

// Drop-in replacement for std::mt19937_64 that emits the exact same
// output stream but does only the work its draws need.
//
// Twisting: the 312-word state advances one word per draw instead of
// regenerating the whole block at once. Forked per-connection streams
// draw a handful of values each, so the batch engine wastes nearly all
// of its state-regeneration work; this one does O(draws) twisting.
//
// Prefix seeding: the seed recurrence x[j] = A*(x[j-1]^x[j-1]>>62) + j
// is one serial multiply chain. Draw i < 156 reads only x[i], x[i+1] and
// x[i+156], so the constructor writes x[0] alone and each draw first
// extends the seeded prefix through x[i+156]: a stream's first draw runs
// 156 recurrence steps, not 311, and each later draw one more. After 156
// draws every word is seeded and the extension never runs again. prime()
// seeds the prefix of several engines in one interleaved loop, so their
// independent chains overlap in the pipeline.
//
// Copies take the cursor and the seeded prefix only; words past the
// prefix hold nothing yet and are never read.
//
// Equivalence with the std engine is pinned by unit tests and by the
// serial digest goldens.
class Mt64 {
 public:
  using result_type = uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }

  explicit Mt64(uint64_t seed) { x_[0] = seed; }

  Mt64(const Mt64& o) : pos_(o.pos_), seeded_(o.seeded_) {
    std::memcpy(x_, o.x_, seeded_ * sizeof(uint64_t));
  }
  Mt64& operator=(const Mt64& o) {
    if (this != &o) {
      pos_ = o.pos_;
      seeded_ = o.seeded_;
      std::memcpy(x_, o.x_, seeded_ * sizeof(uint64_t));
    }
    return *this;
  }

  result_type operator()() {
    // Twisting in index order with in-place updates reads exactly the
    // old/new state words the batched loop reads, so each word — and
    // therefore each tempered output — matches std::mt19937_64.
    if (pos_ == kN) pos_ = 0;
    const unsigned i = pos_++;
    // Only draws i < kM can find the prefix short, so i + kM < kN here.
    if (seeded_ < kN) seed_to(i + kM + 1);
    unsigned i1 = i + 1;
    if (i1 == kN) i1 = 0;
    unsigned im = i + kM;
    if (im >= kN) im -= kN;
    const uint64_t y = (x_[i] & kUpperMask) | (x_[i1] & kLowerMask);
    uint64_t z = x_[im] ^ (y >> 1) ^ ((y & 1ULL) ? kMatrixA : 0ULL);
    x_[i] = z;
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71D67FFFEDA60000ULL;
    z ^= (z << 37) & 0xFFF7EEE000000000ULL;
    z ^= z >> 43;
    return z;
  }

  static constexpr std::size_t kPrimeWidth = 4;
  // Seeds x[0..156] — everything the first draw reads — of each of the
  // n <= kPrimeWidth engines, interleaving their recurrences. Engines
  // already seeded that far are left alone, so priming is idempotent and
  // may follow draws. Draw sequences are unchanged.
  static void prime(Mt64* const* engines, std::size_t n);

 private:
  static constexpr unsigned kN = 312;
  static constexpr unsigned kM = 156;
  static constexpr uint64_t kSeedMul = 6364136223846793005ULL;
  static constexpr uint64_t kMatrixA = 0xB5026F5AA96619E9ULL;
  static constexpr uint64_t kUpperMask = 0xFFFFFFFF80000000ULL;
  static constexpr uint64_t kLowerMask = 0x000000007FFFFFFFULL;

  static uint64_t seed_step(uint64_t prev, unsigned j) {
    return kSeedMul * (prev ^ (prev >> 62)) + j;
  }

  // Extends the seeded prefix to x[0, end). x[seeded_ - 1] is always an
  // untwisted seed word: draw i twists x[i] only after seeding x[i+156].
  void seed_to(unsigned end) {
    uint64_t v = x_[seeded_ - 1];
    for (unsigned j = seeded_; j < end; ++j) x_[j] = v = seed_step(v, j);
    seeded_ = end;
  }

  template <std::size_t W>
  static void prime_lockstep(Mt64* const* engines);

  unsigned pos_ = kN;    // seeded state is "exhausted": first draw twists
  unsigned seeded_ = 1;  // x[0, seeded_) are seed words or twisted ones
  uint64_t x_[kN];
};

class Rng {
 public:
  explicit Rng(uint64_t seed) : seed_(seed) {}
  // Derives an independent sub-stream; stable across runs.
  Rng fork(uint64_t stream) const;

  uint64_t seed() const { return seed_; }

  // Seeds, in one interleaved loop, the state each listed stream reads
  // on its first draw (see Mt64::prime); null entries are skipped. List
  // the streams that are about to draw: the values drawn are unchanged.
  static void prime(std::initializer_list<Rng*> rngs);

  // The three distributions on the per-segment hot path (loss, reorder
  // and ACK-impairment draws) are open-coded bit-exact replicas of the
  // libstdc++ formulas — same engine advance, same arithmetic, same
  // rounding — so they inline to a twist plus a few flops instead of a
  // distribution-object construction per draw. Equivalence with the std
  // distributions is pinned by a unit test and the serial digest goldens.
  double uniform() { return canonical(); }  // [0, 1)
  double uniform(double lo, double hi) {    // [lo, hi)
    return canonical() * (hi - lo) + lo;
  }
  uint64_t uniform_int(uint64_t lo, uint64_t hi);  // inclusive
  // Degenerate p consumes NO engine draw — the early-outs predate the
  // golden digests, so their draw-skipping is part of the frozen stream
  // behavior. For 0 < p < 1 this is bit-exact with
  // std::bernoulli_distribution on the same engine.
  bool bernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return canonical() < p;
  }
  double exponential(double mean);
  double lognormal(double mu, double sigma);
  // Lognormal parameterized by the distribution mean and sigma of the
  // underlying normal — convenient for "mean response size 7.5 kB" specs.
  double lognormal_with_mean(double mean, double sigma);
  int geometric(double mean);  // >= 1, mean as given
  double normal(double mean, double stddev);
  double pareto(double scale, double shape);

 private:
  // The Mersenne Twister state is a pure function of seed_, so it is
  // materialized only on the first draw or prime. Many Rngs per
  // connection are fork parents that never draw (common-random-numbers
  // tree roots); those never seed at all, and copying one copies only
  // its seed.
  Mt64& engine() {
    if (!engine_) engine_.emplace(seed_);
    return *engine_;
  }

  // generate_canonical<double, 53>(Mt64) verbatim: for a full-range
  // 64-bit engine it reduces to one draw rounded to double and scaled by
  // 2^-64 (an exact exponent shift, identical to the library's division
  // by 2^64), clamped below 1.0 exactly as the library clamps.
  double canonical() {
    const double ret = static_cast<double>(engine()()) * 0x1p-64;
    if (ret >= 1.0) [[unlikely]] {
      return 1.0 - std::numeric_limits<double>::epsilon() / 2.0;
    }
    return ret;
  }

  uint64_t seed_ = 0;
  std::optional<Mt64> engine_;
};

}  // namespace prr::sim
