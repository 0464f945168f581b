#include "tcp/recovery/rate_halving.h"

#include <algorithm>

namespace prr::tcp {

void RateHalvingRecovery::on_enter(uint64_t, uint64_t ssthresh,
                                   uint64_t cwnd, uint32_t mss) {
  ssthresh_ = ssthresh;
  cwnd_ = cwnd;  // reduction happens gradually, not in one step
  mss_ = mss;
  ack_count_ = 0;
}

uint64_t RateHalvingRecovery::on_ack(uint64_t, uint64_t pipe_bytes) {
  ++ack_count_;
  // Rate halving: decrement one MSS on every second ACK while above the
  // congestion-control target.
  if ((ack_count_ & 1) == 0 && cwnd_ > ssthresh_ && cwnd_ >= mss_) {
    cwnd_ -= mss_;
  }
  // Burst avoidance (tcp_cwnd_down): never let cwnd exceed pipe + 1 MSS,
  // so at most one segment can be sent per pipe-reducing ACK.
  cwnd_ = std::min(cwnd_, pipe_bytes + mss_);
  return cwnd_;
}

uint64_t RateHalvingRecovery::exit_cwnd(uint64_t pipe_bytes, uint64_t) {
  // Linux keeps the (possibly tiny) window it ended recovery with: at
  // most pipe + 1. This is the behaviour PRR was designed to fix.
  return std::min(cwnd_, pipe_bytes + mss_);
}

}  // namespace prr::tcp
