#include "obs/trace_record.h"

#include <cinttypes>
#include <cstdio>

namespace prr::obs {

namespace {

// obs/ sits below tcp/ and net/, so it names their enum values through
// local tables instead of including their headers. The numeric
// correspondence is pinned by static_asserts in obs/instrument.cc,
// which sees both sides.
const char* tcp_state_name(unsigned s) {
  static const char* kNames[] = {"open", "disorder", "recovery", "loss"};
  return s < 4 ? kNames[s] : "?";
}

const char* timer_name(unsigned id) {
  static const char* kNames[] = {"rto", "er", "tlp", "pacing", "persist"};
  return id < 5 ? kNames[id] : "?";
}

const char* fault_name(unsigned k) {
  static const char* kNames[] = {"blackout",     "bandwidth_shift",
                                 "rtt_spike",    "queue_resize",
                                 "ack_outage",   "receiver_stall"};
  return k < 6 ? kNames[k] : "?";
}

const char* invariant_name(unsigned k) {
  static const char* kNames[] = {
      "snd_una_regressed", "snd_una_beyond_snd_nxt", "cwnd_below_floor",
      "cwnd_above_rwnd",   "pipe_exceeds_flight",    "prr_beyond_slow_start",
      "timer_leak",        "injected",               "no_forward_progress",
      "no_termination",    "conservation",           "arm_divergence"};
  return k < 12 ? kNames[k] : "?";
}

}  // namespace

const char* to_string(TraceType t) {
  switch (t) {
    case TraceType::kStateChange: return "state_change";
    case TraceType::kAck: return "ack";
    case TraceType::kPrr: return "prr";
    case TraceType::kTransmit: return "transmit";
    case TraceType::kUnaAdvance: return "una_advance";
    case TraceType::kSackSeen: return "sack_seen";
    case TraceType::kEnterRecovery: return "enter_recovery";
    case TraceType::kExitRecovery: return "exit_recovery";
    case TraceType::kRtoFired: return "rto_fired";
    case TraceType::kUndo: return "undo";
    case TraceType::kAbort: return "abort";
    case TraceType::kTimerSchedule: return "timer_schedule";
    case TraceType::kTimerFire: return "timer_fire";
    case TraceType::kTimerCancel: return "timer_cancel";
    case TraceType::kFault: return "fault";
    case TraceType::kWireData: return "wire_data";
    case TraceType::kWireAck: return "wire_ack";
    case TraceType::kInvariant: return "invariant";
    case TraceType::kLostRetransmit: return "lost_retransmit";
    case TraceType::kSackReneg: return "sack_reneg";
    case TraceType::kCount: break;
  }
  return "?";
}

std::string describe(const TraceRecord& r) {
  char buf[256];
  const double ms = static_cast<double>(r.at_ns) / 1e6;
  int n = std::snprintf(buf, sizeof(buf), "%10.3fms conn %u %-14s ", ms,
                        r.conn, to_string(r.type));
  if (n < 0) return {};
  char* p = buf + n;
  const std::size_t left = sizeof(buf) - static_cast<std::size_t>(n);
  switch (r.type) {
    case TraceType::kStateChange:
      std::snprintf(p, left,
                    "%s->%s cwnd=%" PRIu64 " ssthresh=%" PRIu64
                    " una=%" PRIu64 " nxt=%" PRIu64,
                    tcp_state_name(r.a), tcp_state_name(r.b), r.f[0], r.f[1],
                    r.f[2], r.f[3]);
      break;
    case TraceType::kAck:
      std::snprintf(p, left,
                    "ack=%" PRIu64 " state=%s cwnd=%" PRIu64 " pipe=%" PRIu64
                    " ssthresh=%" PRIu64 " delivered=%" PRIu64,
                    r.f[0], tcp_state_name(r.a), r.f[1], r.f[2], r.f[3],
                    r.f[4]);
      break;
    case TraceType::kPrr:
      std::snprintf(p, left,
                    "%s prr_delivered=%" PRIu64 " prr_out=%" PRIu64
                    " recover_fs=%" PRIu64 " ssthresh=%" PRIu64
                    " cwnd=%" PRIu64,
                    r.a ? "proportional" : "reduction-bound", r.f[0], r.f[1],
                    r.f[2], r.f[3], r.f[4]);
      break;
    case TraceType::kTransmit:
      std::snprintf(p, left,
                    "%sseq=%" PRIu64 " len=%" PRIu64 " state=%s cwnd=%" PRIu64,
                    r.a ? "RETX " : "", r.f[0], r.f[1],
                    tcp_state_name(static_cast<unsigned>(r.b)), r.f[2]);
      break;
    case TraceType::kUnaAdvance:
      std::snprintf(p, left, "una=%" PRIu64, r.f[0]);
      break;
    case TraceType::kSackSeen:
      std::snprintf(p, left, "%s[%" PRIu64 ",%" PRIu64 ")",
                    r.a ? "dsack " : "", r.f[0], r.f[1]);
      break;
    case TraceType::kEnterRecovery:
      std::snprintf(p, left,
                    "%sflight=%" PRIu64 " ssthresh=%" PRIu64 " pipe=%" PRIu64
                    " prior_cwnd=%" PRIu64 " recovery_point=%" PRIu64,
                    r.a ? "early-retransmit " : "", r.f[0], r.f[1], r.f[2],
                    r.f[3], r.f[4]);
      break;
    case TraceType::kExitRecovery:
      std::snprintf(p, left, "cwnd=%" PRIu64 " pipe=%" PRIu64, r.f[0],
                    r.f[1]);
      break;
    case TraceType::kRtoFired:
      std::snprintf(p, left,
                    "state=%s una=%" PRIu64 " nxt=%" PRIu64 " cwnd=%" PRIu64
                    " backoff=%" PRIu64 " rto=%.1fms",
                    tcp_state_name(r.a), r.f[0], r.f[1], r.f[2], r.f[3],
                    static_cast<double>(r.f[4]) / 1e6);
      break;
    case TraceType::kUndo:
      std::snprintf(p, left, "%s cwnd=%" PRIu64 " ssthresh=%" PRIu64,
                    r.a ? "spurious-rto" : "dsack", r.f[0], r.f[1]);
      break;
    case TraceType::kAbort:
      std::snprintf(p, left, "una=%" PRIu64 " nxt=%" PRIu64, r.f[0], r.f[1]);
      break;
    case TraceType::kTimerSchedule:
      std::snprintf(p, left, "%s expiry=%.3fms", timer_name(r.a),
                    static_cast<double>(r.f[0]) / 1e6);
      break;
    case TraceType::kTimerFire:
      std::snprintf(p, left, "%s", timer_name(r.a));
      break;
    case TraceType::kTimerCancel:
      std::snprintf(p, left, "%s", timer_name(r.a));
      break;
    case TraceType::kFault:
      std::snprintf(p, left, "%s duration=%.1fms", fault_name(r.a),
                    static_cast<double>(r.f[0]) / 1e6);
      break;
    case TraceType::kWireData:
      std::snprintf(p, left, "%sseq=%" PRIu64 " len=%" PRIu64,
                    (r.b & 1) ? "RETX " : "", r.f[0], r.f[1]);
      break;
    case TraceType::kWireAck:
      std::snprintf(p, left, "ack=%" PRIu64 " sacks=%u rwnd=%" PRIu64,
                    r.f[0], static_cast<unsigned>(r.a), r.f[2]);
      break;
    case TraceType::kInvariant:
      std::snprintf(p, left, "VIOLATION %s", invariant_name(r.a));
      break;
    case TraceType::kLostRetransmit:
      std::snprintf(p, left, "detected=%" PRIu64 " fast=%" PRIu64, r.f[0],
                    r.f[1]);
      break;
    case TraceType::kSackReneg:
      std::snprintf(p, left, "una=%" PRIu64 " forgotten=%" PRIu64, r.f[0],
                    r.f[1]);
      break;
    case TraceType::kCount:
      break;
  }
  return std::string(buf);
}

}  // namespace prr::obs
