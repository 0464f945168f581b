// Flight-recorder record: one fixed-size, trivially-copyable cell of the
// per-connection trace ring (obs/flight_recorder.h). Every interesting
// transition in the simulator — CA-state changes, per-ACK PRR decisions,
// (re)transmissions, RTO fires, undo events, timer schedule/fire/cancel,
// fault-injector actions, wire-level segments, invariant violations — is
// one 64-byte record: a nanosecond timestamp, the connection id, a type
// tag, two small scalar args and six 64-bit payload words whose meaning
// is per-type (documented on the enum). Fixed layout keeps the hot-path
// write a handful of stores and lets the ring be preallocated once.
#pragma once

#include <cstdint>
#include <string>
#include <type_traits>

#include "sim/time.h"

namespace prr::obs {

enum class TraceType : uint8_t {
  // a = old TcpState, b = new TcpState;
  // f = {cwnd, ssthresh, snd_una, snd_nxt}.
  kStateChange = 0,
  // Per-ACK decision point, recorded after the ACK is fully processed.
  // a = TcpState; f = {ack, cwnd, pipe, ssthresh, delivered, snd_nxt}.
  kAck,
  // PRR internals for an ACK processed during PRR fast recovery.
  // a = 1 if the proportional part ran (pipe > ssthresh), b = bound;
  // f = {prr_delivered, prr_out, recover_fs, prr_ssthresh, cwnd}.
  kPrr,
  // a = 1 for retransmission, b = TcpState;
  // f = {seq, len, cwnd, snd_nxt}.
  kTransmit,
  // f = {new snd_una}.
  kUnaAdvance,
  // One SACK block reported to the sender. a = 1 for a DSACK report;
  // f = {start, end}.
  kSackSeen,
  // a = 1 when triggered via early retransmit; b = mss;
  // f = {flight, ssthresh, pipe, prior_cwnd, recovery_point}.
  kEnterRecovery,
  // f = {cwnd_after_exit, pipe, retransmits_during, bytes_sent_during,
  // cwnd_at_exit (pre-adjustment), max_burst_segments}.
  kExitRecovery,
  // a = TcpState when the timer hit; f = {snd_una, snd_nxt, cwnd,
  // backoff_count, rto_ns, max_burst_segments (when interrupting
  // recovery, else 0)}.
  kRtoFired,
  // Congestion-state reversion. a = 0 for DSACK/Eifel undo in recovery,
  // 1 for a spurious-RTO (F-RTO/Eifel) undo; f = {cwnd, ssthresh,
  // pipe_at_exit, max_burst_segments} (f[2], f[3] only for a = 0).
  kUndo,
  // Connection aborted (max RTO backoffs exceeded). f = {snd_una,
  // snd_nxt}.
  kAbort,
  // Loss-detection timer activity. a = timer id (0 = RTO, 1 = early-
  // retransmit delay, 2 = TLP probe, 3 = pacing); f = {expiry_ns}.
  kTimerSchedule,
  kTimerFire,
  kTimerCancel,
  // Fault-injector action. a = net::FaultKind; f = {duration_ns,
  // bit-cast scale double, queue_limit_packets}.
  kFault,
  // Wire-level segment entering the network (data direction).
  // a = SACK-block count, b = flag bits (1 retransmit, 2 ece, 4 cwr,
  // 8 ect, 16 ce, 32 has_ts); f = {seq, len, rwnd}.
  kWireData,
  // Same, ACK direction. f = {ack, len, rwnd}.
  kWireAck,
  // Invariant checker fired. a = tcp::InvariantKind.
  kInvariant,
  // SACK/DSACK evidence showed one or more retransmissions were
  // themselves lost (RFC 6675 rescue detection on this ACK).
  // f = {detected, fast_detected} — counts for this ACK only.
  kLostRetransmit,
  // Sender decided the receiver's SACK state is untrustworthy (head of
  // window SACKed at RTO: reneging or a false SACK) and forgot all SACK
  // marks. f = {snd_una, bytes_forgotten}.
  kSackReneg,
  kCount,
};

const char* to_string(TraceType t);

// kWireData flag bits stored in TraceRecord::b.
inline constexpr uint16_t kWireFlagRetransmit = 1;
inline constexpr uint16_t kWireFlagEce = 2;
inline constexpr uint16_t kWireFlagCwr = 4;
inline constexpr uint16_t kWireFlagEct = 8;
inline constexpr uint16_t kWireFlagCe = 16;
inline constexpr uint16_t kWireFlagHasTs = 32;

struct TraceRecord {
  int64_t at_ns = 0;
  uint32_t conn = 0;
  TraceType type = TraceType::kStateChange;
  uint8_t a = 0;
  uint16_t b = 0;
  uint64_t f[6] = {0, 0, 0, 0, 0, 0};
};
static_assert(sizeof(TraceRecord) == 64, "one cache line per record");
static_assert(std::is_trivially_copyable_v<TraceRecord>);

inline TraceRecord make_record(sim::Time at, uint32_t conn, TraceType type,
                               uint8_t a = 0, uint16_t b = 0,
                               uint64_t f0 = 0, uint64_t f1 = 0,
                               uint64_t f2 = 0, uint64_t f3 = 0,
                               uint64_t f4 = 0, uint64_t f5 = 0) {
  TraceRecord r;
  r.at_ns = at.ns();
  r.conn = conn;
  r.type = type;
  r.a = a;
  r.b = b;
  r.f[0] = f0;
  r.f[1] = f1;
  r.f[2] = f2;
  r.f[3] = f3;
  r.f[4] = f4;
  r.f[5] = f5;
  return r;
}

// Human-readable one-liner ("12.345ms conn 7 ack cwnd=14608 pipe=...").
// For terminal forensics (examples/replay_quarantine); the machine form
// is the Perfetto export (obs/perfetto.h).
std::string describe(const TraceRecord& r);

// True when `r` ends an open fast-recovery episode: the exit, an RTO
// that interrupts recovery, or an in-recovery DSACK/Eifel undo
// (kUndo a=0; a=1 is the spurious-RTO undo, outside recovery). The
// Perfetto slices and the critical-path attribution close episodes by
// this rule; EpisodeBuilder's per-type switch applies the same one.
inline bool ends_recovery_episode(const TraceRecord& r) {
  return r.type == TraceType::kExitRecovery ||
         r.type == TraceType::kRtoFired ||
         (r.type == TraceType::kUndo && r.a == 0);
}

}  // namespace prr::obs
