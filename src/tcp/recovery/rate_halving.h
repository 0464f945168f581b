// Linux (pre-3.x) fast recovery: rate halving with burst avoidance, after
// Mathis & Mahdavi's rate-halving and the tcp_cwnd_down() logic of the
// 2.6 kernels the paper measured. The window is decremented by one MSS on
// every second ACK (spreading the reduction across the round trip) and is
// additionally clamped to pipe + 1 MSS on every ACK, which is what makes
// Linux end recovery with a tiny window when losses are heavy or the
// application stalls — the paper's "slow start after recovery" problem.
#pragma once

#include <cstdint>

namespace prr::tcp {

class RateHalvingRecovery {
 public:
  void on_enter(uint64_t flight_bytes, uint64_t ssthresh, uint64_t cwnd,
                uint32_t mss);
  uint64_t on_ack(uint64_t delivered_bytes, uint64_t pipe_bytes);
  void on_sent(uint64_t) {}
  uint64_t exit_cwnd(uint64_t pipe_bytes, uint64_t cwnd_bytes);

 private:
  uint64_t ssthresh_ = 0;
  uint64_t cwnd_ = 0;
  uint32_t mss_ = 1;
  uint64_t ack_count_ = 0;
};

}  // namespace prr::tcp
