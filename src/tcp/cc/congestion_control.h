// Pluggable congestion control. PRR is explicitly designed to work with
// any of these (§4: "both parts of the PRR algorithm are independent of
// the congestion control algorithm"); the recovery policies only consume
// the ssthresh each CC chooses. All window quantities are bytes.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "sim/time.h"

namespace prr::tcp {

class CongestionControl {
 public:
  virtual ~CongestionControl() = default;

  // Target window after a loss event (the paper's CongCtrlAlg()).
  virtual uint64_t ssthresh_after_loss(uint64_t cwnd_bytes) = 0;

  // Window growth for an ACK of `acked_bytes` received in the Open state.
  // Returns the new cwnd. `in_slow_start` is cwnd < ssthresh.
  virtual uint64_t on_ack(uint64_t cwnd_bytes, uint64_t ssthresh_bytes,
                          uint64_t acked_bytes, sim::Time now) = 0;

  // Resets epoch state after an RTO.
  virtual void on_timeout(sim::Time now) = 0;

  virtual std::string name() const = 0;
};

enum class CcKind { kNewReno, kCubic, kGaimd, kBinomial };

// `gaimd_beta` (the multiplicative decrease factor) only applies to
// kGaimd, whose additive increase is one segment per RTT.
std::unique_ptr<CongestionControl> make_congestion_control(
    CcKind kind, uint32_t mss, double gaimd_beta = 0.5);

// Pool-recycle support: rewinds `cc` in place to exactly the state
// make_congestion_control(kind, mss, gaimd_beta) would construct, with no
// allocation. Returns false when `cc` is not an instance of `kind` — the
// caller then recreates via the factory.
bool reset_congestion_control(CongestionControl& cc, CcKind kind,
                              uint32_t mss, double gaimd_beta = 0.5);

}  // namespace prr::tcp
