#include "sim/rng.h"

#include <cmath>

namespace prr::sim {

namespace {
// SplitMix64: mixes (seed, stream) into a fresh engine seed.
uint64_t splitmix64(uint64_t x) {
  x += 0x9E3779B97f4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}
}  // namespace

// W independent recurrences per step: each is a serial multiply chain,
// so interleaving them costs about as much as running one.
template <std::size_t W>
void Mt64::prime_lockstep(Mt64* const* engines) {
  uint64_t* x[W];
  uint64_t v[W];
  for (std::size_t k = 0; k < W; ++k) {
    x[k] = engines[k]->x_;
    v[k] = x[k][0];
  }
  for (unsigned j = 1; j <= kM; ++j) {
    // Fully unrolled, so each chain lives in a register.
#pragma GCC unroll 4
    for (std::size_t k = 0; k < W; ++k) x[k][j] = v[k] = seed_step(v[k], j);
  }
  for (std::size_t k = 0; k < W; ++k) engines[k]->seeded_ = kM + 1;
}

void Mt64::prime(Mt64* const* engines, std::size_t n) {
  // An engine short of x[kM] has not drawn (a draw seeds past it), so
  // its prefix words are all untwisted and rewriting them from x[0] is
  // exact.
  Mt64* group[kPrimeWidth];
  std::size_t w = 0;
  for (std::size_t k = 0; k < n; ++k) {
    if (engines[k]->seeded_ <= kM) group[w++] = engines[k];
  }
  switch (w) {
    case 1: prime_lockstep<1>(group); break;
    case 2: prime_lockstep<2>(group); break;
    case 3: prime_lockstep<3>(group); break;
    case 4: prime_lockstep<4>(group); break;
  }
}

void Rng::prime(std::initializer_list<Rng*> rngs) {
  Mt64* group[Mt64::kPrimeWidth];
  std::size_t n = 0;
  for (Rng* r : rngs) {
    if (r == nullptr) continue;
    group[n++] = &r->engine();
    if (n == Mt64::kPrimeWidth) {
      Mt64::prime(group, n);
      n = 0;
    }
  }
  Mt64::prime(group, n);
}

Rng Rng::fork(uint64_t stream) const {
  return Rng(splitmix64(seed_ ^ splitmix64(stream)));
}

uint64_t Rng::uniform_int(uint64_t lo, uint64_t hi) {
  return std::uniform_int_distribution<uint64_t>(lo, hi)(engine());
}

double Rng::exponential(double mean) {
  // std::exponential_distribution(1.0 / mean) verbatim: the library
  // divides by the (rounded) lambda rather than multiplying by the mean,
  // and the replica must round identically.
  const double lambda = 1.0 / mean;
  return -std::log(1.0 - canonical()) / lambda;
}

double Rng::lognormal(double mu, double sigma) {
  return std::lognormal_distribution<double>(mu, sigma)(engine());
}

double Rng::lognormal_with_mean(double mean, double sigma) {
  // E[lognormal(mu, sigma)] = exp(mu + sigma^2/2)  =>  mu = ln(mean) - s^2/2.
  const double mu = std::log(mean) - sigma * sigma / 2.0;
  return lognormal(mu, sigma);
}

int Rng::geometric(double mean) {
  if (mean <= 1.0) return 1;
  // Support {1, 2, ...} with E = mean: success prob p = 1/mean.
  const double p = 1.0 / mean;
  return 1 + std::geometric_distribution<int>(p)(engine());
}

double Rng::normal(double mean, double stddev) {
  return std::normal_distribution<double>(mean, stddev)(engine());
}

double Rng::pareto(double scale, double shape) {
  const double u = uniform();
  return scale / std::pow(1.0 - u, 1.0 / shape);
}

}  // namespace prr::sim
