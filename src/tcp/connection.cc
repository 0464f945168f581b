#include "tcp/connection.h"

#include <utility>

namespace prr::tcp {

Connection::Connection(sim::Simulator& sim, ConnectionConfig config,
                       sim::Rng rng)
    : config_(config) {
  path_ = std::make_unique<net::Path>(sim, config.path, rng);
  sender_ = std::make_unique<Sender>(
      sim, config.sender,
      [this](net::Segment&& seg) { path_->send_data(std::move(seg)); });
  receiver_ = std::make_unique<Receiver>(
      sim, config.receiver,
      [this](net::Segment&& seg) { path_->send_ack(std::move(seg)); });
  path_->set_data_sink(
      [this](net::Segment&& seg) { receiver_->on_data(seg); });
  path_->set_ack_sink(
      [this](net::Segment&& seg) { sender_->on_ack_segment(seg); });
}

void Connection::reset(ConnectionConfig config, sim::Rng rng) {
  config_ = config;
  // Same sub-object order as the constructor. The data/ACK sinks and the
  // send callbacks capture `this`/path_ which are stable across
  // recycling, so no rewiring is needed.
  path_->reset(config.path, rng);
  sender_->reset(config.sender);
  receiver_->reset(config.receiver);
}

}  // namespace prr::tcp
