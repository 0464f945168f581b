// Per-worker recycled connection state for million-connection sweeps.
// Constructing a Simulator + Connection + ServerApp per connection costs
// dozens of allocations (event-queue slabs, scoreboard ring, response
// vectors); a ConnArena owns one of each and recycles
// them through the explicit reset() protocol (Simulator::reset,
// Connection::reset, ServerApp::reset), so the warm sweep loop performs
// no per-connection allocation on clean paths.
//
// Correctness contract: "fresh == reset by construction". Every reset()
// in the chain restores exactly the freshly-constructed state (the
// Sender constructor itself runs Sender::reset()),
// so a pooled run is byte-identical to a fresh-objects run — enforced by
// tests/test_conn_arena.cc digest comparisons and, in debug builds, by
// check_reset_state() after every recycle.
#pragma once

#include <optional>

#include "http/server_app.h"
#include "obs/metrics_registry.h"
#include "sim/simulator.h"
#include "tcp/connection.h"
#include "workload/population.h"

namespace prr::exp {

// Cached instrument pointers for one ArmResult's MetricsRegistry: the
// per-connection instruments (histograms, the completion tally, trace
// accounting). The registry is a name-keyed map with pointer-stable
// instruments; folding a connection through cached handles replaces
// string-keyed lookups (several past SSO size) per connection with
// pointer dereferences. The counters that shadow ArmResult totals are
// not here: run_arm writes them once per arm. Conditionally-created
// instruments (completion tally, trace accounting) stay lazy so a
// registry never grows an instrument the uncached path would not have
// created.
struct RegistryHandles {
  obs::MetricsRegistry* owner = nullptr;

  obs::LogHistogram* retransmits_per_conn = nullptr;
  obs::LogHistogram* timeouts_per_conn = nullptr;
  obs::LogHistogram* final_cwnd_bytes = nullptr;
  obs::LogHistogram* conn_sim_time_ns = nullptr;
  obs::Gauge* max_conn_sim_time_ns = nullptr;

  // Lazily bound (see above).
  obs::Counter* connections_completed = nullptr;
  obs::Counter* trace_records_written = nullptr;
  obs::Counter* trace_records_dropped = nullptr;

  // (Re)binds the unconditional handles to `reg` and clears the lazy
  // ones. Cheap relative to a chunk of connections; called whenever the
  // arena crosses into a new shard's registry.
  void bind(obs::MetricsRegistry& reg);

  // Drops every cached pointer. Must be called when the previously bound
  // registry may have been destroyed: a successor registry can reuse its
  // address (worker shards live in the same stack slot each chunk), so
  // the owner-pointer comparison alone cannot detect the swap.
  void invalidate() { *this = RegistryHandles{}; }
};

// One worker's arena. The Connection and ServerApp are constructed on
// the first connection (their internal wiring captures stable `this`
// pointers into sim/conn, so the objects must never move) and reset in
// place for every subsequent one.
class ConnArena {
 public:
  sim::Simulator sim;
  workload::ConnectionSample sample;  // filled in place by sample_into()
  std::optional<tcp::Connection> conn;
  std::optional<http::ServerApp> app;
  RegistryHandles handles;

  // Debug-only poison check that the recycled objects are back to their
  // freshly-constructed observable state (compiled out under NDEBUG).
  // The byte-identical pooled-vs-fresh digest tests are the strong form
  // of this check; this catches a broken reset at the point of reuse.
  void check_reset_state();
};

}  // namespace prr::exp
