// CUBIC (Ha, Rhee, Xu 2008): beta = 0.7 multiplicative decrease — the 30%
// reduction the paper's proportional-part example uses ("seven new
// segments for every ten incoming ACKs") — and real-time cubic window
// growth with a TCP-friendly region.
#pragma once

#include <cstdint>

#include "sim/time.h"

namespace prr::tcp {

class Cubic {
 public:
  static constexpr double kBeta = 0.7;
  static constexpr double kC = 0.4;  // segments / s^3

  explicit Cubic(uint32_t mss) : mss_(mss) {}

  uint64_t ssthresh_after_loss(uint64_t cwnd_bytes);
  uint64_t on_ack(uint64_t cwnd_bytes, uint64_t ssthresh_bytes,
                  uint64_t acked_bytes, sim::Time now);
  void on_timeout(sim::Time now);

 private:
  double w_max_segs_ = 0;      // window before the last reduction
  sim::Time epoch_start_ = sim::Time::zero();
  bool epoch_valid_ = false;
  double k_ = 0;               // time to regain w_max (seconds)
  double w_est_segs_ = 0;      // TCP-friendly (Reno-equivalent) window
  double est_acc_segs_ = 0;

  uint32_t mss_;
};

}  // namespace prr::tcp
