// Duplex path between a TCP sender and receiver: a data link (loss +
// reordering) forward and an ACK link (loss + stretch via AckMangler)
// back. The path owns the links; endpoints attach delivery callbacks.
#pragma once

#include <functional>
#include <memory>
#include <optional>

#include "net/ack_mangler.h"
#include "net/link.h"
#include "net/segment.h"
#include "obs/flight_recorder.h"
#include "sim/rng.h"
#include "sim/simulator.h"

namespace prr::net {

class Path {
 public:
  struct Config {
    Link::Config data_link;
    Link::Config ack_link;
    AckMangler::Config ack_mangler;

    // Convenience builder for symmetric paths: a bottleneck of `rate` with
    // round-trip propagation time `rtt` split evenly across directions and
    // a queue of `queue_packets`. The ACK direction is fast (ACKs are tiny
    // and rarely the bottleneck).
    static Config symmetric(util::DataRate rate, sim::Time rtt,
                            std::size_t queue_packets = 1000);
  };

  Path(sim::Simulator& sim, Config config, sim::Rng rng);

  // Pool-recycle: returns the path (both links + mangler) to a freshly-
  // constructed state for a new (config, rng) pair. The data/ACK sinks
  // installed by the owning Connection are kept — they capture the
  // Connection, whose address is stable across recycling — but the wire
  // tap and recorder are cleared like any other per-connection wiring.
  // Precondition: the owning Simulator has been reset.
  void reset(Config config, sim::Rng rng);

  // Optional wire tap: sees every data segment and every ACK at the
  // moment it enters the network (before loss/queueing). Used by the
  // pcap writer. For trace records prefer set_recorder — the recorder
  // write is a handful of stores, the tap is a std::function dispatch
  // per segment.
  std::function<void(const Segment&, bool is_ack, sim::Time at)> wire_tap;

  // Optional flight recorder: when attached, every data segment and ACK
  // entering the network writes a kWireData/kWireAck record (before the
  // wire_tap fires).
  void set_recorder(obs::FlightRecorder* recorder, uint32_t conn_id) {
    recorder_ = recorder;
    trace_conn_id_ = conn_id;
  }

  // Endpoint attachment: installs the sink on the link itself, so a
  // delivery is one callback. Until set, arrivals are discarded.
  void set_data_sink(Link::DeliverFn fn);
  void set_ack_sink(Link::DeliverFn fn);

  void send_data(Segment&& seg);
  void send_ack(Segment&& seg);

  Link& data_link() { return *data_link_; }
  Link& ack_link() { return *ack_link_; }
  AckMangler& ack_mangler() { return *ack_mangler_; }

  // Models a client that goes silent (user abandoned): all further ACK
  // delivery stops. The sender will RTO repeatedly and eventually abort.
  void kill_client() { client_dead_ = true; }
  bool client_dead() const { return client_dead_; }

  // Receiver stall (rebuffering, a descheduled client process): while
  // stalled, ACKs are held instead of forwarded. Because every ACK
  // snapshots complete receiver state, keeping only the newest held ACK
  // and releasing it when the stall ends is an exact model — the released
  // ACK acknowledges everything the suppressed ones did.
  void set_ack_stall(bool on);
  bool ack_stalled() const { return ack_stalled_; }

 private:
  sim::Simulator& sim_;
  std::unique_ptr<Link> data_link_;
  std::unique_ptr<Link> ack_link_;
  std::unique_ptr<AckMangler> ack_mangler_;
  obs::FlightRecorder* recorder_ = nullptr;
  uint32_t trace_conn_id_ = 0;
  bool client_dead_ = false;
  bool ack_stalled_ = false;
  std::optional<Segment> stalled_ack_;
};

}  // namespace prr::net
