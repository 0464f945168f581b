#include "obs/instrument.h"

#include <utility>

#include "net/fault_schedule.h"
#include "tcp/invariants.h"

namespace prr::obs {

// obs/trace_record.cc names tcp/net enum values through local tables
// (obs sits below those layers); this file sees both sides, so pin the
// numeric correspondence here.
static_assert(static_cast<int>(tcp::TcpState::kOpen) == 0 &&
              static_cast<int>(tcp::TcpState::kLoss) == 3);
static_assert(static_cast<int>(net::FaultKind::kBlackout) == 0 &&
              static_cast<int>(net::FaultKind::kReceiverStall) == 5);
static_assert(static_cast<int>(tcp::InvariantKind::kSndUnaRegressed) == 0 &&
              static_cast<int>(tcp::InvariantKind::kInjected) == 7 &&
              static_cast<int>(tcp::InvariantKind::kArmDivergence) == 11);

Instrument::Instrument(sim::Simulator& sim, tcp::Connection& conn,
                       FlightRecorder& recorder, uint32_t conn_id)
    : sim_(sim), conn_(conn), recorder_(recorder), conn_id_(conn_id) {
  conn_.sender().set_recorder(&recorder_, conn_id_);
  conn_.path().set_recorder(&recorder_, conn_id_);
}

Instrument::~Instrument() {
  conn_.sender().set_recorder(nullptr, 0);
  conn_.path().set_recorder(nullptr, 0);
  if (!wire_listeners_.empty()) conn_.path().wire_tap = nullptr;
}

void Instrument::add_wire_listener(WireListener l) {
  if (wire_listeners_.empty()) {
    conn_.path().wire_tap = [this](const net::Segment& seg, bool is_ack,
                                   sim::Time at) {
      for (const WireListener& wl : wire_listeners_) wl(seg, is_ack, at);
    };
  }
  wire_listeners_.push_back(std::move(l));
}

}  // namespace prr::obs
