#include "net/path.h"

#include <utility>

namespace prr::net {

Path::Config Path::Config::symmetric(util::DataRate rate, sim::Time rtt,
                                     std::size_t queue_packets) {
  Config c;
  c.data_link.rate = rate;
  c.data_link.propagation_delay = rtt / 2;
  c.data_link.queue_limit_packets = queue_packets;
  c.ack_link.rate = util::DataRate::mbps(100);
  c.ack_link.propagation_delay = rtt / 2;
  c.ack_link.queue_limit_packets = 10000;
  return c;
}

namespace {

void discard(Segment&&) {}

}  // namespace

Path::Path(sim::Simulator& sim, Config config, sim::Rng rng) : sim_(sim) {
  data_link_ = std::make_unique<Link>(sim, config.data_link, discard);
  ack_link_ = std::make_unique<Link>(sim, config.ack_link, discard);
  ack_mangler_ = std::make_unique<AckMangler>(
      sim, config.ack_mangler, rng.fork(0x41434b),
      [this](Segment&& s) { ack_link_->send(std::move(s)); });
}

void Path::reset(Config config, sim::Rng rng) {
  data_link_->reset(config.data_link);
  ack_link_->reset(config.ack_link);
  // Same fork stream id as the constructor so recycled draw sequences
  // match fresh ones.
  ack_mangler_->reset(config.ack_mangler, rng.fork(0x41434b));
  wire_tap = nullptr;
  recorder_ = nullptr;
  trace_conn_id_ = 0;
  client_dead_ = false;
  ack_stalled_ = false;
  stalled_ack_.reset();
}

void Path::set_data_sink(Link::DeliverFn fn) {
  data_link_->set_sink(std::move(fn));
}

void Path::set_ack_sink(Link::DeliverFn fn) {
  ack_link_->set_sink(std::move(fn));
}

void Path::send_data(Segment&& seg) {
  if (recorder_ != nullptr) {
    uint16_t flags = 0;
    if (seg.is_retransmit) flags |= obs::kWireFlagRetransmit;
    if (seg.ece) flags |= obs::kWireFlagEce;
    if (seg.cwr) flags |= obs::kWireFlagCwr;
    if (seg.ect) flags |= obs::kWireFlagEct;
    if (seg.ce) flags |= obs::kWireFlagCe;
    if (seg.has_ts) flags |= obs::kWireFlagHasTs;
    recorder_->write(obs::make_record(
        sim_.now(), trace_conn_id_, obs::TraceType::kWireData,
        static_cast<uint8_t>(seg.sacks.size()), flags, seg.seq, seg.len,
        seg.rwnd));
  }
  if (wire_tap) wire_tap(seg, /*is_ack=*/false, sim_.now());
  data_link_->send(std::move(seg));
}

void Path::send_ack(Segment&& seg) {
  if (client_dead_) return;
  if (ack_stalled_) {
    stalled_ack_ = std::move(seg);  // newest ACK supersedes the held one
    return;
  }
  if (recorder_ != nullptr) {
    recorder_->write(obs::make_record(
        sim_.now(), trace_conn_id_, obs::TraceType::kWireAck,
        static_cast<uint8_t>(seg.sacks.size()), 0, seg.ack, seg.len,
        seg.rwnd));
  }
  if (wire_tap) wire_tap(seg, /*is_ack=*/true, sim_.now());
  ack_mangler_->on_ack(std::move(seg));
}

void Path::set_ack_stall(bool on) {
  ack_stalled_ = on;
  if (!on && stalled_ack_.has_value()) {
    Segment held = std::move(*stalled_ack_);
    stalled_ack_.reset();
    send_ack(std::move(held));
  }
}

}  // namespace prr::net
