// GAIMD (Yang & Lam 2000): general AIMD with additive increase alpha
// (segments per RTT) and multiplicative decrease beta. Included because
// the paper stresses PRR composes with any (alpha, beta) choice; the
// reduction-bound ablation bench sweeps beta through it.
#pragma once

#include <cstdint>

#include "sim/time.h"

namespace prr::tcp {

class Gaimd {
 public:
  Gaimd(uint32_t mss, double alpha = 1.0, double beta = 0.5)
      : mss_(mss), alpha_(alpha), beta_(beta) {}

  uint64_t ssthresh_after_loss(uint64_t cwnd_bytes);
  uint64_t on_ack(uint64_t cwnd_bytes, uint64_t ssthresh_bytes,
                  uint64_t acked_bytes, sim::Time now);
  void on_timeout(sim::Time /*now*/) {}

  double beta() const { return beta_; }

 private:
  uint32_t mss_;
  double alpha_;
  double beta_;
  uint64_t avoid_acc_ = 0;
};

}  // namespace prr::tcp
