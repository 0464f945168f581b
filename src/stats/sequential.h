// Always-valid sequential statistics for paired arm comparisons: a
// mixture sequential probability ratio test (mSPRT) over a stream of
// paired observations, yielding an e-process, an always-valid p-value,
// and a confidence sequence for the mean — all safe to inspect after
// every observation ("any-time peeking"), which a fixed-N test forbids.
// Paper-claim gates can assert each DESIGN.md §15 shape as one such
// paired confidence sequence.
//
// Model: observations d_1, d_2, ... are treated as i.i.d. with unknown
// mean mu and unknown variance; H0: mu = 0. The mixture likelihood
// ratio under a normal prior with variance tau^2 = mixture_ratio *
// sigma^2 over the alternative mean is
//
//   Lambda_n = sqrt(1/(1+n r)) * exp( n^2 dbar^2 r / (2 sigma^2 (1+n r)) )
//
// with r = mixture_ratio and sigma^2 the running sample variance
// (Welford). Lambda_n is an e-process: under H0, P(sup_n Lambda_n >=
// 1/alpha) <= alpha (Ville), so p_n = min_k<=n 1/Lambda_k is an
// always-valid p-value and
//
//   dbar_n +/- sqrt( sigma^2 (1+n r) / (n^2 r) * ln((1+n r)/alpha^2) )
//
// is a (1-alpha) confidence sequence: with probability >= 1-alpha it
// covers mu at EVERY n simultaneously. Estimated variance makes both
// approximate at small n, so rejection is additionally gated on a
// minimum sample count.
//
// Everything here is plain double arithmetic in observation order — fed
// from folded sweep aggregates (bit-identical at any worker-thread
// count), the whole statistic stream is deterministic.
#pragma once

#include <cstdint>
#include <string>

namespace prr::stats {

class ConfidenceSequence {
 public:
  struct Config {
    double alpha = 0.05;         // size of the test / CS miscoverage
    // Mixture variance as a fraction of the observation variance
    // (tau^2 = mixture_ratio * sigma^2). Larger detects big effects
    // sooner; smaller is more sensitive to small effects late. The
    // scale-free form keeps one default sane across metrics measured
    // in fractions and in milliseconds.
    double mixture_ratio = 0.25;
    // No rejection (and an infinite-radius CS) before this many
    // observations: the variance estimate needs support before the
    // always-valid guarantee is meaningful with a plug-in sigma.
    uint64_t min_n = 10;
  };

  ConfidenceSequence() = default;
  explicit ConfidenceSequence(Config cfg) : cfg_(cfg) {}

  void observe(double d);

  uint64_t n() const { return n_; }
  double mean() const { return mean_; }
  // Unbiased sample variance; 0 until two observations.
  double variance() const;

  // log of the current mixture likelihood ratio Lambda_n (an e-process
  // sample path). 0 while underpowered (n < min_n or zero variance).
  double log_e_value() const;
  // Always-valid p-value: running minimum of 1/Lambda, clamped to 1.
  double p_value() const { return p_; }

  // Confidence-sequence half width at level alpha; infinite while
  // underpowered.
  double radius() const;
  double lower() const { return mean_ - radius(); }
  double upper() const { return mean_ + radius(); }

  // p <= alpha with the minimum sample count met: the CS excludes 0.
  bool rejects_zero() const;

  const Config& config() const { return cfg_; }

  // {"n":...,"mean":...,"lo":...,"hi":...,"p":...,"log10_e":...}
  std::string to_json() const;

 private:
  Config cfg_;
  uint64_t n_ = 0;
  double mean_ = 0;  // Welford running mean
  double m2_ = 0;    // Welford sum of squared deviations
  double p_ = 1.0;   // running-min always-valid p
};

}  // namespace prr::stats
