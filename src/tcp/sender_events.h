// What the sender reports to its observers, and the two values that
// describe one fast-recovery episode. Observers in higher layers (the
// per-arm recovery log, for one) include this header instead of
// tcp/sender.h, so tcp/ needs to know nothing about them.
#pragma once

#include <cstdint>

#include "net/segment.h"
#include "sim/time.h"

namespace prr::tcp {

// A Recovery episode as it opens: the kEnterRecovery payload and its
// time. The sender keeps it while the episode is open.
struct RecoveryEntry {
  sim::Time start;
  bool via_er = false;           // entered by early retransmit
  uint32_t mss = 1;
  uint64_t recover_fs = 0;       // flight at entry (RFC 6937 RecoverFS)
  uint64_t ssthresh = 0;         // the target CongCtrlAlg() picked
  uint64_t pipe = 0;
  uint64_t prior_cwnd = 0;       // cwnd before the reduction
  uint64_t recovery_point = 0;   // snd.nxt at entry
};

enum class RecoveryExit : uint8_t {
  kCompleted,  // snd.una reached the recovery point
  kUndo,       // DSACK or Eifel proved every retransmission spurious
  kRto,        // the retransmission timer fired mid-episode
};

// A Recovery episode as it closes. Windows are in bytes at the close;
// an undo or an RTO adjusts nothing there, so its cwnd_at_exit equals
// cwnd_after_exit.
struct RecoveryClose {
  sim::Time end;
  RecoveryExit how = RecoveryExit::kCompleted;
  uint64_t cwnd_at_exit = 0;     // before the exit adjustment
  uint64_t cwnd_after_exit = 0;  // after it
  uint64_t pipe_at_exit = 0;
  uint64_t ssthresh = 0;
  // Tallies over the episode.
  uint64_t retransmits = 0;
  uint64_t bytes_sent = 0;          // all data sent while in Recovery
  uint64_t max_burst_segments = 0;  // largest single-ACK send burst
};

// The sender's observers (the app, the invariant checker, the progress
// watchdog, the recovery log). Every method is a no-op by default. A
// listener may call back into the sender: ServerApp::on_una_advance
// writes the next response, which transmits.
class SenderEvents {
 public:
  // Every segment put on the wire.
  virtual void on_transmit(uint64_t /*seq*/, uint32_t /*len*/,
                           bool /*retx*/) {}
  // snd.una advanced to `una`.
  virtual void on_una_advance(uint64_t /*una*/) {}
  // An ACK was fully processed: state machine, window regulation and
  // transmissions done. Ignored ACKs (aborted, invalid, ancient) never
  // get here.
  virtual void on_ack_processed(const net::Segment& /*ack*/) {}
  // An RTO fired; `backoffs` already counts this one. During a
  // blackhole no ACKs arrive, so only this event sees the stall.
  virtual void on_rto(uint64_t /*una*/, int /*backoffs*/) {}
  // The sender gave up (max RTO backoffs exceeded).
  virtual void on_abort() {}
  // A Recovery episode closed, once per episode. An episode still open
  // when the run stops never closes.
  virtual void on_recovery_closed(const RecoveryEntry& /*entry*/,
                                  const RecoveryClose& /*close*/) {}

 protected:
  ~SenderEvents() = default;
};

}  // namespace prr::tcp
