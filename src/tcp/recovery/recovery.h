// Fast-recovery window regulation as a closed set of policy values. The
// sender owns the scoreboard, chooses *which* bytes to send
// (retransmissions before new data), and asks the policy only *how much*
// may be sent — the separation the paper calls out ("the decision of
// which data to send ... is independent of PRR").
//
// Contract per recovery episode, the same for every policy:
//   on_enter(flight, ssthresh, cwnd, mss)
//                               once, on the ACK that triggers recovery.
//                               `flight` is snd.nxt - snd.una at entry
//                               (RecoverFS), `ssthresh` the target chosen
//                               by congestion control, `cwnd` the window
//                               at entry;
//   cwnd_bytes = on_ack(delivered, pipe)
//                               for every ACK during recovery, including
//                               the triggering one: the ACK's
//                               DeliveredData and RFC 3517 SetPipe. The
//                               sender may then transmit while
//                               pipe < cwnd_bytes;
//   on_sent(bytes)              for every (re)transmission in recovery;
//   exit_cwnd(pipe, cwnd)       once, when snd.una passes the recovery
//                               point; the result becomes cwnd.
#pragma once

#include <variant>

#include "core/prr.h"
#include "tcp/recovery/prr.h"
#include "tcp/recovery/rate_halving.h"
#include "tcp/recovery/rfc3517.h"

namespace prr::tcp {

enum class RecoveryKind { kRfc3517, kLinuxRateHalving, kPrr };

// Alternative order matches RecoveryKind.
using RecoveryPolicy =
    std::variant<Rfc3517Recovery, RateHalvingRecovery, PrrRecovery>;

// `bound` only applies to kPrr.
RecoveryPolicy make_recovery_policy(
    RecoveryKind kind,
    core::ReductionBound bound = core::ReductionBound::kSlowStart);

}  // namespace prr::tcp
