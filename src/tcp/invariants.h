// TCP invariant checker: a per-ACK observer asserting the paper's core
// guarantees on a live Sender and recording violations as structured
// records instead of crashing — the safety net the chaos harness uses to
// quarantine misbehaving connections (exp/experiment.h).
//
// Checked per ACK (after the sender fully processed it):
//   - snd.una is monotone non-decreasing and never passes snd.nxt;
//   - cwnd >= 1 MSS outside fast recovery (inside recovery the window
//     regulation may legitimately compute pipe + sndcnt < MSS);
//   - cwnd stays within the peer's receive window (plus the initial
//     window of slack, since TCP never validates cwnd against rwnd
//     directly — the send gate does);
//   - pipe never exceeds twice the flight size (every outstanding octet
//     is counted at most once as original and once as retransmission);
//   - during PRR recovery, the paper's §3 bounds: prr_out never exceeds
//     prr_delivered by more than the slow-start allowance ("never more
//     than slow start"), and the episode's cwnd target is honored.
// Checked at teardown (finalize()):
//   - no loss-detection timer remains armed once the flow completed or
//     aborted (timer leaks wedge the event queue at scale).
//
// The checker is attach-only: construct it next to a Sender and it
// registers as one of the sender's listeners. Connections that never
// construct one pay nothing — the default experiment hot path runs
// checker-free.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/simulator.h"
#include "tcp/sender.h"

namespace prr::tcp {

enum class InvariantKind {
  kSndUnaRegressed,
  kSndUnaBeyondSndNxt,
  kCwndBelowFloor,
  kCwndAboveRwnd,
  kPipeExceedsFlight,
  kPrrBeyondSlowStart,
  kTimerLeak,
  kInjected,  // synthetic violation for quarantine-path testing
  // Torture-engine oracles (torture/oracles.h) report through the same
  // violation/quarantine pipeline:
  kNoForwardProgress,  // snd_una stuck across K RTO backoffs, path up
  kNoTermination,      // flow neither finished nor aborted by the deadline
  kConservation,       // byte-accounting identity broken at teardown
  kArmDivergence,      // arms delivered different byte streams (cross-arm)
};

const char* to_string(InvariantKind kind);

struct InvariantViolation {
  InvariantKind kind = InvariantKind::kInjected;
  sim::Time at;
  std::string detail;
};

class InvariantChecker : private SenderEvents {
 public:
  struct Config {
    // Record one synthetic kInjected violation on the Nth checked ACK
    // (1-based; 0 = never). Exists so the quarantine machinery can be
    // exercised end-to-end without a real bug.
    uint64_t inject_on_ack = 0;
  };

  // Registers with the sender (Sender::add_listener) and checks after
  // every processed ACK. The checker must outlive the sender's ACK
  // processing.
  InvariantChecker(sim::Simulator& sim, Sender& sender, Config config);
  InvariantChecker(sim::Simulator& sim, Sender& sender)
      : InvariantChecker(sim, sender, Config()) {}

  // Teardown checks; call once the simulation has finished.
  void finalize();

  // Entry point for external oracles (torture/oracles.h): the violation
  // joins this checker's list — and its flight-recorder annotation — so
  // oracle findings flow through the same quarantine/replay pipeline as
  // the per-ACK checks.
  void record_external(InvariantKind kind, std::string detail) {
    record(kind, std::move(detail));
  }

  bool ok() const { return violations_.empty(); }
  const std::vector<InvariantViolation>& violations() const {
    return violations_;
  }
  uint64_t acks_checked() const { return acks_checked_; }

 private:
  void on_ack_processed(const net::Segment& ack) override;
  void record(InvariantKind kind, std::string detail);

  sim::Simulator& sim_;
  Sender& sender_;
  Config config_;
  uint64_t prev_una_ = 0;
  // Widest window the peer ever advertised — the cwnd-vs-rwnd bound's
  // reference (a later shrink does not invalidate earlier cwnd growth).
  uint64_t max_rwnd_seen_ = 0;
  uint64_t acks_checked_ = 0;
  // PRR episode tracking for the "never more than slow start" bound:
  // slow-start growth is one extra MSS per ACK, so the bound scales with
  // the number of ACKs the current recovery episode has processed.
  bool prr_was_in_recovery_ = false;
  uint64_t prr_prev_delivered_ = 0;
  uint64_t prr_episode_acks_ = 0;
  bool finalized_ = false;
  std::vector<InvariantViolation> violations_;
};

}  // namespace prr::tcp
