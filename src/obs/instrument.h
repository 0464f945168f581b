// Per-connection instrumentation bundle: attaches one FlightRecorder to
// a Connection's sender (CA-state, per-ACK, timer, retransmit records)
// and to its path's wire tap (kWireData/kWireAck records), and offers
// the single subscription point downstream consumers share. trace/
// timeseq and trace/pcap attach HERE instead of installing their own
// sender hooks and wire taps — one set of instrumentation points, many
// consumers; the bespoke taps they used to install are gone.
//
// The Instrument must outlive the connection's traffic; destroying it
// detaches the recorder from the sender and clears the path's tap. The
// tap it installs is the path's only one.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "net/segment.h"
#include "obs/flight_recorder.h"
#include "sim/simulator.h"
#include "tcp/connection.h"

namespace prr::obs {

class Instrument {
 public:
  Instrument(sim::Simulator& sim, tcp::Connection& conn,
             FlightRecorder& recorder, uint32_t conn_id = 0);
  ~Instrument();
  Instrument(const Instrument&) = delete;
  Instrument& operator=(const Instrument&) = delete;

  FlightRecorder& recorder() { return recorder_; }
  const FlightRecorder& recorder() const { return recorder_; }
  uint32_t conn_id() const { return conn_id_; }
  tcp::Connection& connection() { return conn_; }
  sim::Simulator& simulator() { return sim_; }

  // Called for every segment entering the network, after the wire
  // record is written (trace/pcap's event source). Wire records
  // themselves are written by the Path directly (set_recorder — a few
  // stores per segment); the std::function tap is installed only when
  // the first segment-level listener registers, so record-only tracing
  // never pays a dispatch per segment.
  using WireListener =
      std::function<void(const net::Segment&, bool is_ack, sim::Time at)>;
  void add_wire_listener(WireListener l);

  // kWireData flag bits stored in TraceRecord::b (canonical values in
  // trace_record.h; kept here for existing call sites).
  static constexpr uint16_t kFlagRetransmit = kWireFlagRetransmit;
  static constexpr uint16_t kFlagEce = kWireFlagEce;
  static constexpr uint16_t kFlagCwr = kWireFlagCwr;
  static constexpr uint16_t kFlagEct = kWireFlagEct;
  static constexpr uint16_t kFlagCe = kWireFlagCe;
  static constexpr uint16_t kFlagHasTs = kWireFlagHasTs;

 private:
  sim::Simulator& sim_;
  tcp::Connection& conn_;
  FlightRecorder& recorder_;
  uint32_t conn_id_;
  std::vector<WireListener> wire_listeners_;
};

}  // namespace prr::obs
