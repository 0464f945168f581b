// RFC 3517 fast recovery (Algorithm 1 in the paper): cwnd is dropped to
// ssthresh in one step on entry and stays there; each ACK allows
// MAX(0, cwnd - pipe) to be sent. Exhibits the paper's two standard
// problems: a half-RTT silence under light loss (pipe stays above cwnd
// until half the window's ACKs pass) and arbitrarily large bursts when
// losses drive pipe far below ssthresh.
#pragma once

#include <cstdint>

namespace prr::tcp {

class Rfc3517Recovery {
 public:
  void on_enter(uint64_t, uint64_t ssthresh, uint64_t, uint32_t) {
    ssthresh_ = ssthresh;
  }

  uint64_t on_ack(uint64_t, uint64_t) { return ssthresh_; }

  void on_sent(uint64_t) {}

  uint64_t exit_cwnd(uint64_t, uint64_t) { return ssthresh_; }

 private:
  uint64_t ssthresh_ = 0;
};

}  // namespace prr::tcp
