// Wires a Sender, Receiver and duplex Path into one simulated TCP
// connection. Connections start established (the paper's latency metric
// excludes the handshake).
#pragma once

#include <memory>

#include "net/path.h"
#include "sim/rng.h"
#include "sim/simulator.h"
#include "tcp/receiver.h"
#include "tcp/sender.h"

namespace prr::tcp {

struct ConnectionConfig {
  SenderConfig sender;
  Receiver::Config receiver;
  net::Path::Config path;
};

class Connection {
 public:
  // Counters land in sender().metrics(); recovery episodes reach the
  // listeners registered on sender().
  Connection(sim::Simulator& sim, ConnectionConfig config, sim::Rng rng);

  // Pool-recycle: rewires the whole connection (path, sender, receiver)
  // to the state a fresh construction with these arguments would
  // produce, keeping every buffer/timer/event-slot capacity. Must run
  // after the owning Simulator was reset and before any per-connection
  // wiring (recorder, loss models, checker, app, recovery log) is
  // attached.
  void reset(ConnectionConfig config, sim::Rng rng);

  // Application write on the server side.
  void write(uint64_t bytes) { sender_->write(bytes); }

  Sender& sender() { return *sender_; }
  Receiver& receiver() { return *receiver_; }
  net::Path& path() { return *path_; }
  const ConnectionConfig& config() const { return config_; }

 private:
  ConnectionConfig config_;
  std::unique_ptr<net::Path> path_;
  std::unique_ptr<Sender> sender_;
  std::unique_ptr<Receiver> receiver_;
};

}  // namespace prr::tcp
