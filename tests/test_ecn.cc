// ECN (RFC 3168) with PRR-paced CWR reductions — RFC 6937's non-loss
// congestion-signal path: queue marking, ECE echo/latch semantics, and
// window reduction to ssthresh with zero retransmissions.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "net/loss_model.h"
#include "sim/simulator.h"
#include "tcp/connection.h"
#include "tcp/receiver.h"

namespace prr::tcp {
namespace {

using namespace prr::sim::literals;

constexpr uint32_t kMss = 1000;

TEST(EcnLink, MarksEctSegmentsAboveThreshold) {
  sim::Simulator sim;
  net::Link::Config cfg;
  cfg.rate = util::DataRate::mbps(1);
  cfg.propagation_delay = 1_ms;
  cfg.ecn_mark_threshold = 3;
  int ce = 0, delivered = 0;
  net::Link link(sim, cfg, [&](net::Segment s) {
    ++delivered;
    ce += s.ce;
  });
  for (int i = 0; i < 8; ++i) {
    net::Segment s;
    s.seq = static_cast<uint64_t>(i) * kMss;
    s.len = kMss;
    s.ect = true;
    link.send(std::move(s));
  }
  sim.run();
  EXPECT_EQ(delivered, 8);
  // Depth at arrival: 0,1,2,3,4,5,6,7 -> marked from the 4th on.
  EXPECT_EQ(ce, 5);
  EXPECT_EQ(link.stats().ce_marked, 5u);
}

TEST(EcnLink, NonEctSegmentsNeverMarked) {
  sim::Simulator sim;
  net::Link::Config cfg;
  cfg.ecn_mark_threshold = 1;
  int ce = 0;
  net::Link link(sim, cfg, [&](net::Segment s) { ce += s.ce; });
  for (int i = 0; i < 5; ++i) {
    net::Segment s;
    s.len = kMss;
    link.send(std::move(s));
  }
  sim.run();
  EXPECT_EQ(ce, 0);
}

TEST(EcnReceiver, LatchesEceUntilCwr) {
  sim::Simulator sim;
  std::vector<net::Segment> acks;
  Receiver::Config cfg;
  cfg.ecn = true;
  cfg.ack_every = 1;
  Receiver rx(sim, cfg, [&](net::Segment a) { acks.push_back(a); });

  net::Segment d;
  d.len = kMss;
  d.ce = true;
  rx.on_data(d);  // CE-marked
  EXPECT_TRUE(acks.back().ece);

  d.seq = kMss;
  d.ce = false;
  rx.on_data(d);  // plain data: ECE stays latched
  EXPECT_TRUE(acks.back().ece);

  d.seq = 2 * kMss;
  d.cwr = true;
  rx.on_data(d);  // sender confirmed: ECE clears
  EXPECT_FALSE(acks.back().ece);
}

class EcnConnectionTest : public ::testing::Test {
 protected:
  // Low-rate bottleneck with a marking threshold well below the queue
  // limit: a cwnd-limited flow builds queue and gets CE marks, never
  // drops.
  std::unique_ptr<Connection> make(sim::Simulator& sim, bool ecn) {
    ConnectionConfig cfg;
    cfg.sender.mss = kMss;
    cfg.sender.cc = CcKind::kNewReno;
    cfg.sender.ecn = ecn;
    cfg.sender.handshake_rtt = 60_ms;
    cfg.receiver.ecn = ecn;
    cfg.path =
        net::Path::Config::symmetric(util::DataRate::mbps(2), 60_ms, 200);
    cfg.path.data_link.ecn_mark_threshold = 10;
    return std::make_unique<Connection>(sim, cfg, sim::Rng(1));
  }
};

TEST_F(EcnConnectionTest, CwrReducesWindowWithoutRetransmissions) {
  sim::Simulator sim;
  auto conn = make(sim, true);
  const Metrics& m = conn->sender().metrics();
  conn->write(600'000);
  sim.run(sim::Time::seconds(120));
  ASSERT_TRUE(conn->sender().all_acked());
  EXPECT_GT(m.ecn_cwr_events, 0u);
  EXPECT_EQ(m.retransmits_total, 0u);       // signal without loss
  EXPECT_EQ(m.fast_recovery_events, 0u);
  EXPECT_EQ(m.timeouts_total, 0u);
  EXPECT_GT(conn->path().data_link().stats().ce_marked, 0u);
}

TEST_F(EcnConnectionTest, WithoutEcnSameQueueNeverMarks) {
  sim::Simulator sim;
  auto conn = make(sim, false);
  const Metrics& m = conn->sender().metrics();
  conn->write(600'000);
  sim.run(sim::Time::seconds(120));
  ASSERT_TRUE(conn->sender().all_acked());
  EXPECT_EQ(m.ecn_cwr_events, 0u);
  EXPECT_EQ(conn->path().data_link().stats().ce_marked, 0u);
}

TEST_F(EcnConnectionTest, CwrConvergesTowardSsthresh) {
  sim::Simulator sim;
  auto conn = make(sim, true);
  // Track the window right after each CWR episode via a probe on ACKs.
  struct Probe final : SenderEvents {
    const Sender& sender;
    uint64_t min_cwnd_after_reduction = UINT64_MAX;
    bool was_reducing = false;
    explicit Probe(const Sender& s) : sender(s) {}
    void on_ack_processed(const net::Segment&) override {
      const uint64_t cwnd = sender.cwnd_bytes();
      const uint64_t ssthresh = sender.ssthresh_bytes();
      if (ssthresh != UINT64_MAX && cwnd <= ssthresh + kMss) {
        was_reducing = true;
        min_cwnd_after_reduction = std::min(min_cwnd_after_reduction, cwnd);
      }
    }
  } probe(conn->sender());
  conn->sender().add_listener(&probe);
  conn->write(600'000);
  sim.run(sim::Time::seconds(120));
  ASSERT_TRUE(conn->sender().all_acked());
  ASSERT_TRUE(probe.was_reducing);
  // The PRR-paced reduction approaches ssthresh but never collapses the
  // window the way a loss-driven Linux recovery would.
  EXPECT_GT(probe.min_cwnd_after_reduction, 2u * kMss);
}

TEST_F(EcnConnectionTest, EcnKeepsGoodputCloseToLossRecovery) {
  // Same path, marking vs dropping at the same queue depth: ECN should
  // finish in comparable (or less) time with zero retransmissions.
  auto run_transfer = [](bool ecn) {
    sim::Simulator sim;
    ConnectionConfig cfg;
    cfg.sender.mss = kMss;
    cfg.sender.cc = CcKind::kNewReno;
    cfg.sender.ecn = ecn;
    cfg.sender.handshake_rtt = 60_ms;
    cfg.receiver.ecn = ecn;
    cfg.path = net::Path::Config::symmetric(util::DataRate::mbps(2),
                                            60_ms, ecn ? 200 : 10);
    if (ecn) cfg.path.data_link.ecn_mark_threshold = 10;
    Connection conn(sim, cfg, sim::Rng(2));
    const Metrics& m = conn.sender().metrics();
    conn.write(600'000);
    sim.run(sim::Time::seconds(300));
    EXPECT_TRUE(conn.sender().all_acked());
    return std::pair{sim.now(), m.retransmits_total};
  };
  auto [t_ecn, retx_ecn] = run_transfer(true);
  auto [t_drop, retx_drop] = run_transfer(false);
  EXPECT_EQ(retx_ecn, 0u);
  EXPECT_GT(retx_drop, 0u);
  EXPECT_LT(t_ecn.seconds_d(), t_drop.seconds_d() * 1.3);
}

}  // namespace
}  // namespace prr::tcp
