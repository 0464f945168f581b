// Binomial congestion control (Bansal & Balakrishnan 2001), the other
// family the paper's reviewers asked about. Generalizes AIMD:
//   increase: w += alpha / w^k   per RTT
//   decrease: w -= beta * w^l    per loss event
// (k=0, l=1) is AIMD; (k=1, l=0) is IIAD; (k=l=1/2) is SQRT. Like GAIMD,
// it only determines ssthresh and growth — PRR handles the reduction
// pacing regardless of the rule.
#pragma once

#include <cstdint>

#include "sim/time.h"

namespace prr::tcp {

class Binomial {
 public:
  Binomial(uint32_t mss, double k = 1.0, double l = 0.0,
           double alpha = 1.0, double beta = 1.0)
      : mss_(mss), k_(k), l_(l), alpha_(alpha), beta_(beta) {}

  uint64_t ssthresh_after_loss(uint64_t cwnd_bytes);
  uint64_t on_ack(uint64_t cwnd_bytes, uint64_t ssthresh_bytes,
                  uint64_t acked_bytes, sim::Time now);
  void on_timeout(sim::Time /*now*/) {}

 private:
  uint32_t mss_;
  double k_, l_, alpha_, beta_;
  double increase_acc_segs_ = 0;
};

}  // namespace prr::tcp
