// Classic Reno/NewReno window rules: halve on loss, slow start below
// ssthresh, +1 MSS per RTT in congestion avoidance.
#pragma once

#include <cstdint>

#include "sim/time.h"

namespace prr::tcp {

class NewReno {
 public:
  explicit NewReno(uint32_t mss) : mss_(mss) {}

  uint64_t ssthresh_after_loss(uint64_t cwnd_bytes);
  uint64_t on_ack(uint64_t cwnd_bytes, uint64_t ssthresh_bytes,
                  uint64_t acked_bytes, sim::Time now);
  void on_timeout(sim::Time /*now*/) {}

 private:
  uint32_t mss_;
  uint64_t avoid_acc_ = 0;  // byte accumulator for congestion avoidance
};

}  // namespace prr::tcp
