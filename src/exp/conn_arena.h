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
#include "sim/simulator.h"
#include "tcp/connection.h"
#include "workload/population.h"

namespace prr::exp {

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

  // Debug-only poison check that the recycled objects are back to their
  // freshly-constructed observable state (compiled out under NDEBUG).
  // The byte-identical pooled-vs-fresh digest tests are the strong form
  // of this check; this catches a broken reset at the point of reuse.
  void check_reset_state();
};

}  // namespace prr::exp
