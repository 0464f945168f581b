// Time-sequence trace capture and rendering, the simulator's equivalent
// of the paper's packet-trace figures (Figs 2-4): original transmissions,
// retransmissions, snd.una advances, and SACK arrivals over time, with a
// CSV writer and an ASCII renderer for terminal inspection.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "sim/time.h"

namespace prr::obs {
class Instrument;
}

namespace prr::trace {

enum class EventKind {
  kSend,        // original data transmission
  kRetransmit,  // retransmission
  kUnaAdvance,  // cumulative ACK progress at the sender
  kSack,        // SACK block reported to the sender
};

struct TraceEvent {
  sim::Time at;
  EventKind kind;
  uint64_t seq_lo = 0;  // byte range (for una advance: new snd.una in lo)
  uint64_t seq_hi = 0;
};

class TimeSeqTrace {
 public:
  // Subscribes to the connection's flight recorder via its Instrument:
  // kTransmit, kUnaAdvance, and kSackSeen records become TraceEvents as
  // they are written. The trace must outlive the instrumented traffic.
  void attach(obs::Instrument& instrument);

  void record(TraceEvent e) { events_.push_back(e); }
  const std::vector<TraceEvent>& events() const { return events_; }

  // CSV: time_ms,kind,seq_lo,seq_hi
  void write_csv(std::ostream& os) const;

  // ASCII time-sequence plot: rows are time slots, columns sequence
  // ranges; '#' original send, 'R' retransmit, '-' cumulative ACK level,
  // 's' SACKed range.
  std::string render_ascii(int width = 72, sim::Time slot =
                               sim::Time::milliseconds(20)) const;

  // Convenience analytics used by tests and benches.
  std::vector<TraceEvent> retransmits() const;
  sim::Time time_of_last_retransmit() const;
  // Longest gap between consecutive sender transmissions inside [from,to]
  // (detects the RFC 3517 half-RTT silence).
  sim::Time longest_send_gap(sim::Time from, sim::Time to) const;
  // Maximum number of transmissions within `window` of each other
  // (burst detection).
  int max_burst(sim::Time window = sim::Time::milliseconds(1)) const;

 private:
  std::vector<TraceEvent> events_;
};

}  // namespace prr::trace
