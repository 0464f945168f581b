// Tail loss probe (extension, §8 future work / RFC 8985): converts
// tail-loss timeouts of short flows into probe-triggered fast recovery.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "net/loss_model.h"
#include "sim/simulator.h"
#include "tcp/connection.h"
#include "tcp/sender.h"

namespace prr::tcp {
namespace {

using namespace prr::sim::literals;

constexpr uint32_t kMss = 1000;

struct Sent {
  uint64_t seq;
  uint32_t len;
  bool retx;
};

class TlpTest : public ::testing::Test {
 protected:
  void make(bool tlp) {
    SenderConfig cfg;
    cfg.mss = kMss;
    cfg.cc = CcKind::kNewReno;
    cfg.tail_loss_probe = tlp;
    cfg.handshake_rtt = 100_ms;
    wire.clear();
    sender = std::make_unique<Sender>(
        sim, cfg,
        [this](net::Segment s) {
          wire.push_back({s.seq, s.len, s.is_retransmit});
        });
  }

  net::Segment ack(uint64_t cum, std::vector<net::SackBlock> sacks = {}) {
    net::Segment a;
    a.is_ack = true;
    a.ack = cum;
    a.sacks.assign(sacks.begin(), sacks.end());
    a.rwnd = 1 << 30;
    return a;
  }

  sim::Simulator sim;
  const Metrics& metrics() const { return sender->metrics(); }
  std::unique_ptr<Sender> sender;
  std::vector<Sent> wire;
};

TEST_F(TlpTest, ProbeFiresBeforeRto) {
  make(true);
  sender->write(5 * kMss);
  wire.clear();
  // ACK for the first 4 segments; the last is lost, no dupacks possible.
  sender->on_ack_segment(ack(4 * kMss));
  // PTO = 2*SRTT + delack bound (single segment) = ~250 ms << RTO.
  sim.run(400_ms);
  EXPECT_EQ(metrics().tlp_probes_sent, 1u);
  EXPECT_EQ(metrics().timeouts_total, 0u);
  ASSERT_GE(wire.size(), 1u);
  EXPECT_TRUE(wire.back().retx);
  EXPECT_EQ(wire.back().seq, 4 * kMss);  // the tail segment
}

TEST_F(TlpTest, NoProbeWhenAcksArrive) {
  make(true);
  sender->write(4 * kMss);
  sim.schedule_in(100_ms, [&] { sender->on_ack_segment(ack(2 * kMss)); });
  sim.schedule_in(200_ms, [&] { sender->on_ack_segment(ack(4 * kMss)); });
  sim.run(1_s);
  EXPECT_EQ(metrics().tlp_probes_sent, 0u);
  EXPECT_EQ(metrics().timeouts_total, 0u);
}

TEST_F(TlpTest, AtMostOneProbePerEpisode) {
  make(true);
  sender->write(3 * kMss);
  sim.run(900_ms);  // nothing ACKed at all: one probe, then RTO
  EXPECT_EQ(metrics().tlp_probes_sent, 1u);
}

TEST_F(TlpTest, RtoStillFiresIfProbeDoesNotHelp) {
  make(true);
  sender->write(3 * kMss);
  sim.run(5_s);
  EXPECT_EQ(metrics().tlp_probes_sent, 1u);
  EXPECT_GE(metrics().timeouts_total, 1u);
}

TEST_F(TlpTest, ProbePrefersNewData) {
  make(true);
  sender->write(30 * kMss);  // 10 sent (IW10), 20 waiting
  wire.clear();
  sim.run(400_ms);  // no ACKs: probe fires with NEW data
  ASSERT_EQ(metrics().tlp_probes_sent, 1u);
  ASSERT_EQ(wire.size(), 1u);
  EXPECT_FALSE(wire[0].retx);
  EXPECT_EQ(wire[0].seq, 10 * kMss);
}

TEST_F(TlpTest, DisabledByDefaultConfig) {
  SenderConfig cfg;
  EXPECT_FALSE(cfg.tail_loss_probe);
  make(false);
  sender->write(3 * kMss);
  sim.run(900_ms);
  EXPECT_EQ(metrics().tlp_probes_sent, 0u);
}

TEST_F(TlpTest, ProbeRetransmitRepairsTailEndToEnd) {
  // Full-path test: drop the last segment of a short response; with TLP
  // the transfer completes via probe + ACK instead of waiting for RTO.
  sim::Simulator fullsim;
  ConnectionConfig cfg;
  cfg.sender.mss = kMss;
  cfg.sender.tail_loss_probe = true;
  cfg.sender.handshake_rtt = 100_ms;
  cfg.path = net::Path::Config::symmetric(util::DataRate::mbps(5), 100_ms);
  Connection conn(fullsim, cfg, sim::Rng(2));
  const Metrics& m = conn.sender().metrics();
  conn.path().data_link().set_loss_model(
      std::make_unique<net::DeterministicLoss>(std::set<uint64_t>{5}));
  conn.write(5 * kMss);
  fullsim.run(sim::Time::seconds(10));
  EXPECT_TRUE(conn.sender().all_acked());
  EXPECT_EQ(m.tlp_probes_sent, 1u);
  EXPECT_EQ(m.timeouts_total, 0u);

  // Without TLP the identical scenario needs an RTO.
  sim::Simulator refsim;
  cfg.sender.tail_loss_probe = false;
  Connection ref(refsim, cfg, sim::Rng(2));
  const Metrics& m2 = ref.sender().metrics();
  ref.path().data_link().set_loss_model(
      std::make_unique<net::DeterministicLoss>(std::set<uint64_t>{5}));
  ref.write(5 * kMss);
  refsim.run(sim::Time::seconds(10));
  EXPECT_TRUE(ref.sender().all_acked());
  EXPECT_GE(m2.timeouts_total, 1u);
}

TEST_F(TlpTest, SpuriousProbeCausesDsackNotCollapse) {
  // The tail was merely slow (long delack); the probe duplicates it. The
  // receiver DSACKs; the sender must not reduce its window.
  sim::Simulator fullsim;
  ConnectionConfig cfg;
  cfg.sender.mss = kMss;
  cfg.sender.tail_loss_probe = true;
  cfg.sender.handshake_rtt = 100_ms;
  cfg.receiver.ack_every = 2;
  cfg.receiver.delack_timeout = 300_ms;  // pathological delayed ACK
  cfg.path = net::Path::Config::symmetric(util::DataRate::mbps(5), 100_ms);
  Connection conn(fullsim, cfg, sim::Rng(3));
  const Metrics& m = conn.sender().metrics();
  const uint64_t cwnd_before = conn.sender().cwnd_bytes();
  conn.write(1 * kMss);
  fullsim.run(sim::Time::seconds(5));
  EXPECT_TRUE(conn.sender().all_acked());
  // PTO = 2 x 100 ms SRTT + the 50 ms delayed-ACK allowance: the probe
  // still goes out before the receiver's 300 ms delayed ACK.
  EXPECT_GE(m.tlp_probes_sent, 1u);
  EXPECT_GE(conn.sender().cwnd_bytes(), cwnd_before);
  EXPECT_EQ(m.timeouts_total, 0u);
}

}  // namespace
}  // namespace prr::tcp
