// Congestion control as a closed set of value types. PRR is explicitly
// designed to work with any of these (§4: "both parts of the PRR
// algorithm are independent of the congestion control algorithm"); the
// recovery policies only consume the ssthresh each CC chooses. All window
// quantities are bytes.
//
// Every kind offers the same three operations:
//   ssthresh_after_loss(cwnd)   the target window after a loss event (the
//                               paper's CongCtrlAlg());
//   on_ack(cwnd, ssthresh, acked, now)
//                               the new cwnd after an ACK of `acked` bytes
//                               in the Open state (slow start below
//                               ssthresh);
//   on_timeout(now)             resets epoch state after an RTO.
#pragma once

#include <cstdint>
#include <variant>

#include "tcp/cc/binomial.h"
#include "tcp/cc/cubic.h"
#include "tcp/cc/gaimd.h"
#include "tcp/cc/newreno.h"

namespace prr::tcp {

enum class CcKind { kNewReno, kCubic, kGaimd, kBinomial };

// Alternative order matches CcKind.
using CongestionControl = std::variant<NewReno, Cubic, Gaimd, Binomial>;

// `gaimd_beta` (the multiplicative decrease factor) only applies to
// kGaimd, whose additive increase is one segment per RTT.
CongestionControl make_congestion_control(CcKind kind, uint32_t mss,
                                          double gaimd_beta = 0.5);

}  // namespace prr::tcp
