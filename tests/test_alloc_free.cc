// Enforces the steady-state zero-allocation invariant of the simulator
// hot path (DESIGN.md §7): once a connection's pools are warm — event
// slots, link ring queue, flight pool, scoreboard — driving further
// traffic through the ACK clock performs no heap allocation at all.
// The counters come from the operator new/delete replacements in
// util/alloc_hooks.cc, linked into this test binary.
#include <gtest/gtest.h>

#include "http/server_app.h"
#include "obs/flight_recorder.h"
#include "obs/instrument.h"
#include "sim/simulator.h"
#include "tcp/connection.h"
#include "util/alloc_counter.h"

namespace prr {
namespace {

TEST(AllocFree, HooksAreLinked) {
  ASSERT_TRUE(util::alloc_counting_enabled());
  const util::AllocCounts before = util::alloc_counts();
  // Call the replaced operators directly; a new/delete *expression* pair
  // here could legally be elided by the optimizer.
  void* p = ::operator new(16);
  ::operator delete(p);
  const util::AllocCounts after = util::alloc_counts();
  EXPECT_GE(after.allocations, before.allocations + 1);
  EXPECT_GE(after.frees, before.frees + 1);
}

// Clean-path bulk transfer, receive-window limited so the flight (and
// with it every pool) reaches a fixed steady-state size during warmup.
// After warmup, a full second of simulated transfer — thousands of
// data segments, ACKs, timer rearms, and cwnd updates — must perform
// zero heap allocations and zero frees.
TEST(AllocFree, SteadyStatePerAckPathDoesNotAllocate) {
  sim::Simulator sim;
  tcp::ConnectionConfig cfg;
  cfg.path = net::Path::Config::symmetric(util::DataRate::mbps(10),
                                          sim::Time::milliseconds(40),
                                          /*queue_packets=*/200);
  // rwnd below the path BDP+queue: the window is receiver-limited and
  // constant, so no queue overflow ever forces a loss recovery.
  cfg.receiver.rwnd = 64 * 1024;
  tcp::Connection conn(sim, cfg, sim::Rng(5));

  std::vector<http::ResponseSpec> responses(1);
  responses[0].bytes = 5'000'000;
  http::ServerApp app(sim, conn, responses);
  app.start();

  // Warmup: slow start, pool growth, first delack/RTO timer cycles.
  sim.run(sim::Time::seconds(2));
  const uint64_t una_at_snapshot = conn.sender().snd_una();
  ASSERT_GT(una_at_snapshot, 0u) << "transfer never started";
  ASSERT_FALSE(conn.sender().all_acked()) << "transfer finished in warmup";

  const util::AllocCounts before = util::alloc_counts();
  sim.run(sim::Time::seconds(3));
  const util::AllocCounts after = util::alloc_counts();

  // The measured window must have carried real traffic.
  ASSERT_GT(conn.sender().snd_una(), una_at_snapshot);
  EXPECT_EQ(after.allocations - before.allocations, 0u)
      << "steady-state per-ACK path allocated";
  EXPECT_EQ(after.frees - before.frees, 0u)
      << "steady-state per-ACK path freed";
}

// Same transfer with the full observability stack attached: flight
// recorder on the sender and fault injector, wire tap through the
// Instrument, timer tracing installed. The recorder ring is preallocated
// and write() is a masked store, so enabled tracing must also be
// allocation-free once warm (ISSUE acceptance criterion).
TEST(AllocFree, TracedSteadyStateDoesNotAllocate) {
  sim::Simulator sim;
  tcp::ConnectionConfig cfg;
  cfg.path = net::Path::Config::symmetric(util::DataRate::mbps(10),
                                          sim::Time::milliseconds(40),
                                          /*queue_packets=*/200);
  cfg.receiver.rwnd = 64 * 1024;
  tcp::Connection conn(sim, cfg, sim::Rng(5));

  obs::FlightRecorder recorder(4096);
  obs::Instrument instrument(sim, conn, recorder, /*conn_id=*/0);

  std::vector<http::ResponseSpec> responses(1);
  responses[0].bytes = 5'000'000;
  http::ServerApp app(sim, conn, responses);
  app.start();

  sim.run(sim::Time::seconds(2));
  const uint64_t una_at_snapshot = conn.sender().snd_una();
  const uint64_t written_at_snapshot = recorder.total_written();
  ASSERT_GT(una_at_snapshot, 0u) << "transfer never started";
  ASSERT_FALSE(conn.sender().all_acked()) << "transfer finished in warmup";

  const util::AllocCounts before = util::alloc_counts();
  sim.run(sim::Time::seconds(3));
  const util::AllocCounts after = util::alloc_counts();

  ASSERT_GT(conn.sender().snd_una(), una_at_snapshot);
  // The measured window must have actually traced (ACKs + wire records
  // at the very least), wrapping the ring.
  EXPECT_GT(recorder.total_written(), written_at_snapshot);
  EXPECT_GT(recorder.count(obs::TraceType::kAck), 0u);
  EXPECT_EQ(after.allocations - before.allocations, 0u)
      << "traced steady-state per-ACK path allocated";
  EXPECT_EQ(after.frees - before.frees, 0u)
      << "traced steady-state per-ACK path freed";
}

}  // namespace
}  // namespace prr
