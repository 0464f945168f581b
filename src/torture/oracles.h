// Progress and conservation oracles for the torture engine — failure
// detectors beyond the per-ACK InvariantChecker, for bugs whose symptom
// is *silence* (a wedged connection never delivers a bad ACK to check).
// All findings are recorded through InvariantChecker::record_external,
// so they ride the existing quarantine → replay → prr_query pipeline.
//
// Oracle catalog:
//   - ProgressWatchdog (kNoForwardProgress): snd_una stuck across K
//     consecutive RTO firings while the path was up AND the timer-driven
//     repair machinery produced no retransmission between them. A
//     healthy sender always retransmits something on RTO; firing with
//     nothing to send means the scoreboard has wedged (e.g. a reneged or
//     lying SACK made the head permanently "delivered"). Requiring the
//     no-retransmission clause keeps honest deep-backoff episodes (every
//     head retransmit genuinely lost) from false-positives.
//   - check_deadlock (kNoTermination): the event queue drained with data
//     neither fully acknowledged nor aborted — nothing will ever happen
//     again on this connection (e.g. a zero-window stall with no persist
//     timer: no data in flight, no timer armed, no ACK coming).
//   - check_conservation (kConservation): teardown byte-accounting
//     identities — snd_una <= snd_nxt <= write_end, every transmitted
//     byte was counted, a completed flow left an empty scoreboard and no
//     in-flight pipe.
//   - diff_outcomes (kArmDivergence, torture/campaign.cc): every arm
//     must deliver the identical byte stream or abort cleanly; a
//     completed arm that delivered the wrong byte count diverged.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/simulator.h"
#include "tcp/invariants.h"
#include "tcp/sender.h"

namespace prr::torture {

class ProgressWatchdog : private tcp::SenderEvents {
 public:
  struct Config {
    // Consecutive no-progress, no-retransmission RTO firings (path up)
    // before the oracle fires.
    int stuck_backoffs = 4;
  };

  // Registers with the sender (Sender::add_listener) and runs on every
  // RTO. `path_up` reports whether the path could have carried traffic since
  // the last RTO; when it returns false the stuck counter resets (a
  // blackout legitimately stalls the flow). Must outlive the sender's
  // RTO processing.
  ProgressWatchdog(tcp::Sender& sender, tcp::InvariantChecker& checker,
                   Config config, std::function<bool()> path_up);


 private:
  void on_rto(uint64_t snd_una, int backoff_count) override;

  tcp::Sender& sender_;
  tcp::InvariantChecker& checker_;
  Config config_;
  std::function<bool()> path_up_;
  uint64_t last_una_ = UINT64_MAX;
  uint64_t last_retx_ = UINT64_MAX;
  int stuck_ = 0;
  bool fired_ = false;
};

// Teardown oracles; call after the simulation has run, before
// InvariantChecker::finalize().
void check_deadlock(const sim::Simulator& sim, const tcp::Sender& sender,
                    tcp::InvariantChecker& checker);
void check_conservation(const tcp::Sender& sender,
                        tcp::InvariantChecker& checker);

}  // namespace prr::torture
