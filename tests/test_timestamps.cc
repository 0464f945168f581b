// TCP timestamps (RFC 7323) and Eifel spurious-retransmit detection
// (RFC 3522): echo semantics, unrestricted RTT sampling, and undo of
// spurious fast retransmissions and timeouts.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "net/loss_model.h"
#include "net/reorder_model.h"
#include "sim/simulator.h"
#include "tcp/connection.h"
#include "tcp/receiver.h"
#include "tcp/sender.h"

namespace prr::tcp {
namespace {

using namespace prr::sim::literals;

constexpr uint32_t kMss = 1000;

net::Segment data(uint64_t seq, uint32_t tsval) {
  net::Segment s;
  s.seq = seq;
  s.len = kMss;
  s.has_ts = true;
  s.tsval = tsval;
  return s;
}

TEST(TimestampsReceiver, EchoesTsRecentOnAcks) {
  sim::Simulator sim;
  std::vector<net::Segment> acks;
  Receiver::Config cfg;
  cfg.timestamps = true;
  cfg.ack_every = 1;
  Receiver rx(sim, cfg, [&](net::Segment a) { acks.push_back(a); });
  rx.on_data(data(0, 111));
  ASSERT_EQ(acks.size(), 1u);
  EXPECT_TRUE(acks[0].has_ts);
  EXPECT_EQ(acks[0].tsecr, 111u);
  rx.on_data(data(kMss, 222));
  EXPECT_EQ(acks.back().tsecr, 222u);
}

TEST(TimestampsReceiver, OutOfOrderDataDoesNotUpdateTsRecent) {
  sim::Simulator sim;
  std::vector<net::Segment> acks;
  Receiver::Config cfg;
  cfg.timestamps = true;
  cfg.ack_every = 1;
  Receiver rx(sim, cfg, [&](net::Segment a) { acks.push_back(a); });
  rx.on_data(data(0, 100));
  rx.on_data(data(2 * kMss, 300));  // hole at kMss: OOO
  // RFC 7323: TS.Recent keeps the timestamp of the last in-order segment.
  EXPECT_EQ(acks.back().tsecr, 100u);
  rx.on_data(data(kMss, 200));  // fills the hole
  EXPECT_EQ(acks.back().tsecr, 200u);
}

TEST(TimestampsReceiver, NoTimestampWhenNotNegotiated) {
  sim::Simulator sim;
  std::vector<net::Segment> acks;
  Receiver::Config cfg;
  cfg.ack_every = 1;
  Receiver rx(sim, cfg, [&](net::Segment a) { acks.push_back(a); });
  rx.on_data(data(0, 111));
  EXPECT_FALSE(acks.back().has_ts);
}

TEST(TimestampWire, OptionCostsTwelveBytes) {
  net::Segment a;
  a.is_ack = true;
  const uint32_t plain = a.wire_size();
  a.has_ts = true;
  EXPECT_EQ(a.wire_size(), plain + 12);
}

class TimestampConnection : public ::testing::Test {
 protected:
  std::unique_ptr<Connection> make(sim::Simulator& sim, bool ts) {
    ConnectionConfig cfg;
    cfg.sender.mss = kMss;
    cfg.sender.timestamps = ts;
    cfg.sender.cc = CcKind::kNewReno;
    cfg.sender.handshake_rtt = 100_ms;
    cfg.receiver.timestamps = ts;
    cfg.path =
        net::Path::Config::symmetric(util::DataRate::mbps(5), 100_ms, 200);
    return std::make_unique<Connection>(sim, cfg, sim::Rng(5));
  }
};

TEST_F(TimestampConnection, RttSamplingWorksThroughRetransmissions) {
  // With timestamps, RTT samples keep flowing even when every ack covers
  // retransmitted data; srtt stays close to the real 100 ms path RTT.
  sim::Simulator sim;
  auto conn = make(sim, true);
  conn->path().data_link().set_loss_model(
      std::make_unique<net::BernoulliLoss>(0.05, sim::Rng(9)));
  conn->write(400'000);
  sim.run(sim::Time::seconds(300));
  ASSERT_TRUE(conn->sender().all_acked());
  EXPECT_GT(conn->sender().rto_estimator().srtt().ms(), 80);
  EXPECT_LT(conn->sender().rto_estimator().srtt().ms(), 400);
}

TEST_F(TimestampConnection, EifelUndoesSpuriousFastRetransmit) {
  // Heavy reordering (no loss at all): dupacks trigger a spurious fast
  // retransmit; the echoed timestamp of the original's ACK reveals it.
  sim::Simulator sim;
  auto conn = make(sim, true);
  const Metrics& m = conn->sender().metrics();
  conn->path().data_link().set_reorder_model(
      std::make_unique<net::RandomReorder>(0.05, 20_ms, 80_ms,
                                           sim::Rng(3)));
  conn->write(400'000);
  sim.run(sim::Time::seconds(300));
  ASSERT_TRUE(conn->sender().all_acked());
  if (m.retransmits_total > 0) {
    // Every retransmission was spurious (nothing was dropped): Eifel or
    // DSACK must have undone the reductions at least once.
    EXPECT_GT(m.undo_events + m.spurious_rto_undone, 0u);
  }
}

TEST_F(TimestampConnection, WithoutTimestampsSameScenarioStillCompletes) {
  sim::Simulator sim;
  auto conn = make(sim, false);
  conn->path().data_link().set_reorder_model(
      std::make_unique<net::RandomReorder>(0.05, 20_ms, 80_ms,
                                           sim::Rng(3)));
  conn->write(400'000);
  sim.run(sim::Time::seconds(300));
  EXPECT_TRUE(conn->sender().all_acked());
}

TEST_F(TimestampConnection, DataSegmentsCarryTsval) {
  sim::Simulator sim;
  auto conn = make(sim, true);
  bool saw_ts = false;
  // Peek at the wire through the trace hook on the ack path is not
  // enough; check receiver side by sampling the path sink directly.
  conn->path().set_data_sink([&](net::Segment s) {
    saw_ts = saw_ts || s.has_ts;
    conn->receiver().on_data(s);
  });
  conn->write(5 * kMss);
  sim.run(sim::Time::seconds(5));
  EXPECT_TRUE(saw_ts);
  EXPECT_TRUE(conn->sender().all_acked());
}

TEST_F(TimestampConnection, GenuineLossIsNotDeclaredSpurious) {
  // Regression: tsval is the *truncated* millisecond send time, so the
  // echo of a retransmission equals floor(tx_time). A naive sub-ms
  // comparison declares every genuine recovery spurious and undoes it,
  // looping recovery forever. With real (non-reordered) loss, timestamps
  // must produce the same recovery behaviour as no-timestamps.
  auto run_once = [this](bool ts) {
    sim::Simulator sim;
    auto conn = make(sim, ts);
    const Metrics& m = conn->sender().metrics();
    conn->path().data_link().set_loss_model(
        std::make_unique<net::GilbertElliottLoss>(
            net::GilbertElliottLoss::Params{0.01, 0.33, 0.0, 0.9},
            sim::Rng(7)));
    conn->write(500'000);
    sim.run(sim::Time::seconds(300));
    EXPECT_TRUE(conn->sender().all_acked());
    return m;
  };
  Metrics with_ts = run_once(true);
  Metrics without_ts = run_once(false);
  // No undo storms: the broken comparison undid *every* recovery. The
  // occasional isolated undo is legitimate (e.g. a duplicate produced by
  // lost-retransmit detection racing a slow ACK).
  EXPECT_LE(with_ts.undo_events, 2u);
  // Retransmission counts in the same ballpark (same sample path).
  EXPECT_LT(with_ts.retransmits_total,
            without_ts.retransmits_total * 2 + 10);
}

}  // namespace
}  // namespace prr::tcp
