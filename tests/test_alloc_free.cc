// Enforces the steady-state zero-allocation invariant of the simulator
// hot path (DESIGN.md §7): once a connection's pools are warm — event
// slots, link slot pool and queue, scoreboard — driving further
// traffic through the ACK clock performs no heap allocation at all.
// The counters come from the operator new/delete replacements in
// util/alloc_hooks.cc, linked into this test binary.
#include <gtest/gtest.h>

#include "http/server_app.h"
#include "net/link.h"
#include "net/loss_model.h"
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

// Every way a segment can leave a Link — delivery, queue overflow, a
// queue-limit shrink, a loss-model drop, a blackout drop, reset() — must
// hand its pool slot back. The link is driven through all of them and
// the books must balance; a following steady-state window then repeats
// the same cycles hundreds of times with zero allocations, which a slot
// leaked on any path would break by forcing the pool to grow.
TEST(AllocFree, LinkDropPathsRecycleSlots) {
  // Drops every segment flagged as a retransmission.
  struct DropRetransmits final : net::LossModel {
    bool should_drop(const net::Segment& s) override {
      return s.is_retransmit;
    }
  };
  sim::Simulator sim;
  net::Link::Config cfg;
  cfg.rate = util::DataRate::mbps(10);
  cfg.propagation_delay = sim::Time::milliseconds(1);
  cfg.queue_limit_packets = 8;
  uint64_t sunk = 0;
  uint64_t sent = 0;
  net::Link link(sim, cfg, [&](net::Segment&&) { ++sunk; });
  auto send = [&](bool lossy) {
    net::Segment s;
    s.seq = sent * 1000;
    s.len = 1000;
    s.is_retransmit = lossy;
    link.send(std::move(s));
    ++sent;
  };
  auto balanced = [&] {
    const net::LinkStats& st = link.stats();
    return st.delivered == sunk &&
           sunk + st.dropped_queue + st.dropped_loss_model +
                   st.dropped_blackout ==
               sent;
  };
  // One of each drop path: 1 on the wire + 8 queued + 3 overflow drops,
  // every third flagged for the loss model, a shrink to 3 that drops
  // the 5 newest queued, then 4 sends into a blackout.
  auto drop_round = [&] {
    for (int i = 0; i < 12; ++i) send(i % 3 == 0);
    link.set_queue_limit(3);
    link.set_queue_limit(8);
    sim.run();
    link.set_blackout(true);
    for (int i = 0; i < 4; ++i) send(false);
    sim.run();
    link.set_blackout(false);
  };
  // reset() with segments queued, on the wire and propagating.
  auto reset_round = [&] {
    for (int i = 0; i < 12; ++i) send(false);
    sim.run(sim.now() + sim::Time::milliseconds(3));
    ASSERT_GT(link.queue_depth(), 0u);
    sim.reset();
    link.reset(cfg);
    sunk = 0;
    sent = 0;
  };

  link.set_loss_model(std::make_unique<DropRetransmits>());
  for (int r = 0; r < 4; ++r) drop_round();
  ASSERT_TRUE(balanced());
  EXPECT_GT(link.stats().dropped_queue, 0u);
  EXPECT_GT(link.stats().dropped_loss_model, 0u);
  EXPECT_GT(link.stats().dropped_blackout, 0u);
  EXPECT_GT(sunk, 0u);

  util::AllocCounts before = util::alloc_counts();
  for (int r = 0; r < 300; ++r) drop_round();
  util::AllocCounts after = util::alloc_counts();
  EXPECT_TRUE(balanced());
  EXPECT_EQ(after.allocations - before.allocations, 0u)
      << "a drop path leaked its slot";
  EXPECT_EQ(after.frees - before.frees, 0u);

  // Reset drops the custom loss model (one allocation for the default),
  // so warm the reset cycle before measuring it.
  for (int r = 0; r < 4; ++r) {
    reset_round();
    drop_round();
  }
  before = util::alloc_counts();
  for (int r = 0; r < 300; ++r) {
    reset_round();
    drop_round();
    ASSERT_TRUE(balanced()) << "round " << r;
  }
  after = util::alloc_counts();
  EXPECT_EQ(after.allocations - before.allocations, 0u)
      << "reset() lost pool capacity or a slot";
  EXPECT_EQ(after.frees - before.frees, 0u);
}

}  // namespace
}  // namespace prr
