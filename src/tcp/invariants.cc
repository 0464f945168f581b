#include "tcp/invariants.h"

#include <cstdio>
#include <utility>

#include "tcp/recovery/prr.h"

namespace prr::tcp {

const char* to_string(InvariantKind kind) {
  switch (kind) {
    case InvariantKind::kSndUnaRegressed: return "snd_una_regressed";
    case InvariantKind::kSndUnaBeyondSndNxt: return "snd_una_beyond_snd_nxt";
    case InvariantKind::kCwndBelowFloor: return "cwnd_below_floor";
    case InvariantKind::kCwndAboveRwnd: return "cwnd_above_rwnd";
    case InvariantKind::kPipeExceedsFlight: return "pipe_exceeds_flight";
    case InvariantKind::kPrrBeyondSlowStart: return "prr_beyond_slow_start";
    case InvariantKind::kTimerLeak: return "timer_leak";
    case InvariantKind::kInjected: return "injected";
    case InvariantKind::kNoForwardProgress: return "no_forward_progress";
    case InvariantKind::kNoTermination: return "no_termination";
    case InvariantKind::kConservation: return "conservation";
    case InvariantKind::kArmDivergence: return "arm_divergence";
  }
  return "?";
}

InvariantChecker::InvariantChecker(sim::Simulator& sim, Sender& sender,
                                   Config config)
    : sim_(sim), sender_(sender), config_(config) {
  sender_.add_listener(this);
}

void InvariantChecker::record(InvariantKind kind, std::string detail) {
  // Mark the violation in the sender's flight recorder too, so the
  // quarantine trace tail carries the failure point inline with the
  // state transitions that led to it.
  PRR_TRACE(sender_.recorder(), sim_.now(), sender_.conn_id(),
            obs::TraceType::kInvariant, static_cast<uint8_t>(kind), 0,
            sender_.snd_una(), sender_.snd_nxt(), sender_.cwnd_bytes(),
            sender_.pipe_bytes());
  InvariantViolation v;
  v.kind = kind;
  v.at = sim_.now();
  v.detail = std::move(detail);
  violations_.push_back(std::move(v));
}

void InvariantChecker::on_ack_processed(const net::Segment& /*ack*/) {
  ++acks_checked_;
  char buf[192];

  const uint64_t una = sender_.snd_una();
  const uint64_t nxt = sender_.snd_nxt();
  const uint64_t cwnd = sender_.cwnd_bytes();
  const uint64_t pipe = sender_.pipe_bytes();
  const uint32_t mss = sender_.config().mss;

  if (una < prev_una_) {
    std::snprintf(buf, sizeof buf, "snd_una went %llu -> %llu",
                  static_cast<unsigned long long>(prev_una_),
                  static_cast<unsigned long long>(una));
    record(InvariantKind::kSndUnaRegressed, buf);
  }
  prev_una_ = una;

  if (una > nxt) {
    std::snprintf(buf, sizeof buf, "snd_una %llu > snd_nxt %llu",
                  static_cast<unsigned long long>(una),
                  static_cast<unsigned long long>(nxt));
    record(InvariantKind::kSndUnaBeyondSndNxt, buf);
  }

  if (!sender_.aborted() && sender_.state() != TcpState::kRecovery &&
      cwnd < mss) {
    std::snprintf(buf, sizeof buf, "cwnd %llu < 1 MSS (%u) in state %s",
                  static_cast<unsigned long long>(cwnd), mss,
                  to_string(sender_.state()));
    record(InvariantKind::kCwndBelowFloor, buf);
  }

  // TCP never clamps cwnd to rwnd directly (the send gate does), but with
  // RFC 2861 cwnd validation the window cannot grow meaningfully past
  // what the peer lets us keep in flight. The bound is the *largest*
  // window the peer ever advertised: congestion state grown under an
  // earlier, wider window legitimately persists when a misbehaving
  // receiver later shrinks rwnd (RFC 793 — shrinking must be tolerated,
  // and cwnd is not flow-control state; the torture campaign's
  // rwnd-shrink pathology exercises exactly this).
  const uint64_t rwnd = sender_.peer_rwnd();
  if (rwnd != UINT64_MAX && rwnd > max_rwnd_seen_) max_rwnd_seen_ = rwnd;
  if (max_rwnd_seen_ != 0 &&
      cwnd > max_rwnd_seen_ + sender_.config().initial_cwnd_bytes()) {
    std::snprintf(buf, sizeof buf, "cwnd %llu above max advertised rwnd %llu",
                  static_cast<unsigned long long>(cwnd),
                  static_cast<unsigned long long>(max_rwnd_seen_));
    record(InvariantKind::kCwndAboveRwnd, buf);
  }

  // RFC 3517 SetPipe counts every un-SACKed octet at most once as an
  // original and once as a live retransmission; anything larger means
  // scoreboard corruption (or an underflowed subtraction upstream).
  const uint64_t flight = nxt - una;
  if (pipe > 2 * flight) {
    std::snprintf(buf, sizeof buf, "pipe %llu > 2x flight %llu",
                  static_cast<unsigned long long>(pipe),
                  static_cast<unsigned long long>(flight));
    record(InvariantKind::kPipeExceedsFlight, buf);
  }

  // PRR §3, "never more than slow start": per ACK the SSRB part allows
  // at most DeliveredData + MSS, i.e. prr_out may lead prr_delivered by
  // one MSS per ACK of the episode — exactly slow start's growth rate.
  // The cumulative bound therefore scales with the episode's ACK count,
  // plus two MSS of slack for the entry fast retransmit and the
  // triggering ACK. The unlimited bound (UB) deliberately sends the
  // whole hole at once, so it is exempt.
  bool in_prr_recovery = false;
  if (sender_.state() == TcpState::kRecovery) {
    if (const auto* prr_policy =
            dynamic_cast<const PrrRecovery*>(sender_.recovery_policy())) {
      const core::PrrState& st = prr_policy->state();
      if (st.in_recovery()) {
        in_prr_recovery = true;
        const bool new_episode = !prr_was_in_recovery_ ||
                                 st.prr_delivered() < prr_prev_delivered_;
        if (new_episode) prr_episode_acks_ = 0;
        ++prr_episode_acks_;
        prr_prev_delivered_ = st.prr_delivered();
        const uint64_t allowance = (prr_episode_acks_ + 2) * uint64_t{mss};
        if (st.bound() != core::ReductionBound::kUnlimited &&
            st.prr_out() > st.prr_delivered() + allowance) {
          std::snprintf(
              buf, sizeof buf,
              "prr_out %llu > prr_delivered %llu + %llu MSS (%llu acks)",
              static_cast<unsigned long long>(st.prr_out()),
              static_cast<unsigned long long>(st.prr_delivered()),
              static_cast<unsigned long long>(prr_episode_acks_ + 2),
              static_cast<unsigned long long>(prr_episode_acks_));
          record(InvariantKind::kPrrBeyondSlowStart, buf);
        }
      }
    }
  }
  prr_was_in_recovery_ = in_prr_recovery;

  if (config_.inject_on_ack != 0 && acks_checked_ == config_.inject_on_ack) {
    std::snprintf(buf, sizeof buf, "synthetic violation on ack %llu",
                  static_cast<unsigned long long>(acks_checked_));
    record(InvariantKind::kInjected, buf);
  }
}

void InvariantChecker::finalize() {
  if (finalized_) return;
  finalized_ = true;
  if ((sender_.aborted() || sender_.all_acked()) &&
      sender_.loss_timers_pending()) {
    record(InvariantKind::kTimerLeak,
           sender_.aborted() ? "loss timer armed after abort"
                             : "loss timer armed after flow completion");
  }
}

}  // namespace prr::tcp
