// End-to-end integration: full connections (sender + path + receiver)
// under combinations of impairments. The fundamental invariant: whatever
// the network does — bursty loss, ACK loss, stretch ACKs, reordering —
// every written byte is eventually delivered exactly once and
// acknowledged, without the simulation deadlocking.
#include <gtest/gtest.h>

#include <cstddef>
#include <memory>

#include "net/loss_model.h"
#include "net/reorder_model.h"
#include "sim/simulator.h"
#include "stats/recovery_log.h"
#include "tcp/connection.h"

namespace prr::tcp {
namespace {

using namespace prr::sim::literals;

// gtest names each case "<name>  # GetParam() = <byte dump of Scenario>",
// and the dump starts with the `name` pointer. A string literal's address
// moves whenever the layout of the test binary does, which renames the
// ctest case. Keeping the names in one 256-byte-aligned table of 16-byte
// slots pins the low byte of every name pointer, so the ctest names stay
// the same from build to build.
enum : std::size_t {
  kAckLoss, kBurstLoss, kClean, kEverything, kFastLink, kHeavyLoss,
  kLightLoss, kLinuxLoss, kReordering, kRfc3517Loss, kSlowLink,
  kStretchAcks, kNumScenarios
};
alignas(256) constexpr char kNames[kNumScenarios][16] = {
    "ack_loss",   "burst_loss", "clean",        "everything",
    "fast_link",  "heavy_loss", "light_loss",   "linux_loss",
    "reordering", "rfc3517_loss", "slow_link", "stretch_acks"};

struct Scenario {
  const char* name;
  double data_loss = 0;          // Bernoulli on the data direction
  double burst_loss_p = 0;       // Gilbert-Elliott entry probability
  double ack_loss = 0;
  uint32_t stretch = 1;
  double reorder_prob = 0;
  RecoveryKind recovery = RecoveryKind::kPrr;
  uint64_t transfer_bytes = 200'000;
  double link_mbps = 4.0;
  int64_t rtt_ms = 80;
};

class ConnectionIntegration : public ::testing::TestWithParam<Scenario> {};

TEST_P(ConnectionIntegration, TransfersAllDataExactlyOnce) {
  const Scenario& sc = GetParam();
  sim::Simulator sim;
  sim::Rng rng(0xC0FFEE);

  ConnectionConfig cfg;
  cfg.sender.mss = 1430;
  cfg.sender.recovery = sc.recovery;
  cfg.sender.handshake_rtt = sim::Time::milliseconds(sc.rtt_ms);
  cfg.path = net::Path::Config::symmetric(
      util::DataRate::mbps(sc.link_mbps),
      sim::Time::milliseconds(sc.rtt_ms), 100);
  cfg.path.ack_mangler.ack_loss_probability = sc.ack_loss;
  cfg.path.ack_mangler.stretch_factor = sc.stretch;

  Connection conn(sim, cfg, rng);
  if (sc.data_loss > 0) {
    conn.path().data_link().set_loss_model(
        std::make_unique<net::BernoulliLoss>(sc.data_loss, rng.fork(1)));
  } else if (sc.burst_loss_p > 0) {
    net::GilbertElliottLoss::Params p;
    p.p_good_to_bad = sc.burst_loss_p;
    Connection* unused = nullptr;
    (void)unused;
    conn.path().data_link().set_loss_model(
        std::make_unique<net::GilbertElliottLoss>(p, rng.fork(2)));
  }
  if (sc.reorder_prob > 0) {
    conn.path().data_link().set_reorder_model(
        std::make_unique<net::RandomReorder>(sc.reorder_prob, 1_ms, 20_ms,
                                             rng.fork(3)));
  }

  conn.write(sc.transfer_bytes);
  sim.run(sim::Time::seconds(600));

  EXPECT_TRUE(conn.sender().all_acked()) << sc.name;
  EXPECT_FALSE(conn.sender().aborted()) << sc.name;
  // Exactly-once app-level delivery: the receiver's in-order point is
  // the full transfer.
  EXPECT_EQ(conn.receiver().rcv_nxt(), sc.transfer_bytes) << sc.name;
  // The connection went idle: no timers left, queue drained.
  EXPECT_TRUE(sim.idle()) << sc.name;
}

TEST_P(ConnectionIntegration, ForwardProgressMatchesDelivery) {
  // The paper's DeliveredData invariant at connection scope: the sum of
  // per-ACK DeliveredData must equal total forward progress. We check
  // the observable corollary: snd.una ends at write_end and retransmits
  // are bounded (sane, not pathological).
  const Scenario& sc = GetParam();
  sim::Simulator sim;
  sim::Rng rng(0xBEEF);

  ConnectionConfig cfg;
  cfg.sender.recovery = sc.recovery;
  cfg.sender.handshake_rtt = sim::Time::milliseconds(sc.rtt_ms);
  cfg.path = net::Path::Config::symmetric(
      util::DataRate::mbps(sc.link_mbps),
      sim::Time::milliseconds(sc.rtt_ms), 100);
  cfg.path.ack_mangler.ack_loss_probability = sc.ack_loss;
  cfg.path.ack_mangler.stretch_factor = sc.stretch;

  Connection conn(sim, cfg, rng);
  const Metrics& metrics = conn.sender().metrics();
  if (sc.data_loss > 0) {
    conn.path().data_link().set_loss_model(
        std::make_unique<net::BernoulliLoss>(sc.data_loss, rng.fork(1)));
  }
  conn.write(sc.transfer_bytes);
  sim.run(sim::Time::seconds(600));

  ASSERT_TRUE(conn.sender().all_acked());
  EXPECT_EQ(conn.sender().snd_una(), conn.sender().write_end());
  // Retransmissions should be within an order of magnitude of the loss
  // rate (not an avalanche of spurious ones).
  const double retx_rate =
      static_cast<double>(metrics.retransmits_total) /
      static_cast<double>(metrics.data_segments_sent);
  EXPECT_LT(retx_rate, sc.data_loss * 4 + sc.burst_loss_p * 20 + 0.04)
      << sc.name;
}

INSTANTIATE_TEST_SUITE_P(
    Impairments, ConnectionIntegration,
    ::testing::Values(
        Scenario{kNames[kClean]},
        Scenario{kNames[kLightLoss], 0.01},
        Scenario{kNames[kHeavyLoss], 0.05},
        Scenario{kNames[kBurstLoss], 0, 0.01},
        Scenario{kNames[kAckLoss], 0.01, 0, 0.2},
        Scenario{kNames[kStretchAcks], 0.01, 0, 0, 4},
        Scenario{kNames[kReordering], 0, 0, 0, 1, 0.02},
        Scenario{kNames[kEverything], 0.02, 0, 0.1, 2, 0.01},
        Scenario{kNames[kLinuxLoss], 0.03, 0, 0, 1, 0,
                 RecoveryKind::kLinuxRateHalving},
        Scenario{kNames[kRfc3517Loss], 0.03, 0, 0, 1, 0,
                 RecoveryKind::kRfc3517},
        Scenario{kNames[kSlowLink], 0.02, 0, 0, 1, 0, RecoveryKind::kPrr,
                 100'000, 0.3, 300},
        Scenario{kNames[kFastLink], 0.01, 0, 0, 1, 0, RecoveryKind::kPrr,
                 2'000'000, 50.0, 20}),
    [](const ::testing::TestParamInfo<Scenario>& info) {
      return info.param.name;
    });

TEST(ConnectionIntegration2, AbandonedClientAborts) {
  sim::Simulator sim;
  sim::Rng rng(1);
  ConnectionConfig cfg;
  cfg.sender.max_rto_backoffs = 4;
  cfg.sender.handshake_rtt = 50_ms;
  cfg.path = net::Path::Config::symmetric(util::DataRate::mbps(2), 50_ms);
  Connection conn(sim, cfg, rng);
  const Metrics& metrics = conn.sender().metrics();
  conn.write(50'000);
  sim.schedule_in(120_ms, [&conn] { conn.path().kill_client(); });
  sim.run(sim::Time::seconds(300));
  EXPECT_TRUE(conn.sender().aborted());
  EXPECT_EQ(metrics.connections_aborted, 1u);
  EXPECT_GT(metrics.failed_retransmits, 0u);
  EXPECT_TRUE(sim.idle());  // no timers leak after abort
}

TEST(ConnectionIntegration2, RecoveryLogAndMetricsConsistent) {
  sim::Simulator sim;
  sim::Rng rng(3);
  ConnectionConfig cfg;
  cfg.sender.handshake_rtt = 60_ms;
  cfg.path = net::Path::Config::symmetric(util::DataRate::mbps(3), 60_ms);
  stats::RecoveryLog rlog;
  Connection conn(sim, cfg, rng);
  conn.sender().add_listener(&rlog);
  const Metrics& metrics = conn.sender().metrics();
  conn.path().data_link().set_loss_model(
      std::make_unique<net::BernoulliLoss>(0.03, rng.fork(9)));
  conn.write(400'000);
  sim.run(sim::Time::seconds(600));
  ASSERT_TRUE(conn.sender().all_acked());
  EXPECT_EQ(rlog.count(), metrics.fast_recovery_events);
  uint64_t event_retx = 0;
  for (const auto& e : rlog.events()) event_retx += e.retransmits;
  EXPECT_EQ(event_retx, metrics.fast_retransmits);
}

TEST(ConnectionIntegration2, DelayedAckReceiverStillCompletes) {
  sim::Simulator sim;
  sim::Rng rng(4);
  ConnectionConfig cfg;
  cfg.receiver.ack_every = 2;
  cfg.receiver.delack_timeout = 200_ms;  // sluggish client
  cfg.sender.handshake_rtt = 40_ms;
  cfg.path = net::Path::Config::symmetric(util::DataRate::mbps(2), 40_ms);
  Connection conn(sim, cfg, rng);
  conn.write(1430);  // single segment: only the delack timer ACKs it
  sim.run(sim::Time::seconds(10));
  EXPECT_TRUE(conn.sender().all_acked());
}

TEST(ConnectionIntegration2, SmallReceiveWindowLimitsButCompletes) {
  sim::Simulator sim;
  sim::Rng rng(5);
  ConnectionConfig cfg;
  cfg.receiver.rwnd = 5 * 1430;
  cfg.sender.handshake_rtt = 40_ms;
  cfg.path = net::Path::Config::symmetric(util::DataRate::mbps(10), 40_ms);
  Connection conn(sim, cfg, rng);
  conn.write(100 * 1430);

  // Once the first ACK advertises the window, flight stays within it.
  struct FlightProbe final : SenderEvents {
    const Sender& sender;
    uint64_t max_flight_after_learning = 0;
    bool learned = false;
    explicit FlightProbe(const Sender& s) : sender(s) {}
    void on_una_advance(uint64_t una) override {
      // Skip while the pre-learning initial burst (IW10, sent before any
      // window advertisement arrived) is still draining.
      if (una < 10u * 1430u) return;
      learned = true;
      max_flight_after_learning = std::max(
          max_flight_after_learning, sender.snd_nxt() - sender.snd_una());
    }
  } probe(conn.sender());
  conn.sender().add_listener(&probe);
  sim.run(sim::Time::seconds(60));
  EXPECT_TRUE(conn.sender().all_acked());
  EXPECT_TRUE(probe.learned);
  EXPECT_LE(probe.max_flight_after_learning, 5u * 1430u);
}

}  // namespace
}  // namespace prr::tcp
