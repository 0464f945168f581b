// Failure injection: adversarial event orderings that must not wedge the
// state machine — client death in every state, writes at awkward moments,
// duplicate and ancient ACKs, and timer races.
#include <gtest/gtest.h>

#include <memory>

#include "net/loss_model.h"
#include "sim/simulator.h"
#include "stats/recovery_log.h"
#include "tcp/connection.h"

namespace prr::tcp {
namespace {

using namespace prr::sim::literals;

ConnectionConfig base_config() {
  ConnectionConfig cfg;
  cfg.sender.mss = 1000;
  cfg.sender.max_rto_backoffs = 3;
  cfg.sender.handshake_rtt = 60_ms;
  cfg.path =
      net::Path::Config::symmetric(util::DataRate::mbps(4), 60_ms, 100);
  return cfg;
}

TEST(FailureInjection, ClientDiesDuringRecovery) {
  sim::Simulator sim;
  stats::RecoveryLog rlog;
  Connection conn(sim, base_config(), sim::Rng(1));
  conn.sender().add_listener(&rlog);
  conn.path().data_link().set_loss_model(
      std::make_unique<net::DeterministicLoss>(std::set<uint64_t>{1, 2}));
  conn.write(20'000);
  // Let recovery start (~entry around 120-160 ms), then kill the client.
  sim.schedule_in(200_ms, [&conn] { conn.path().kill_client(); });
  sim.run(sim::Time::seconds(300));
  EXPECT_TRUE(conn.sender().aborted());
  EXPECT_TRUE(sim.idle());
  // The interrupted recovery event is still logged coherently.
  for (const auto& e : rlog.events()) {
    EXPECT_GE(e.end.ns(), e.start.ns());
  }
}

TEST(FailureInjection, ClientDiesWithErPending) {
  sim::Simulator sim;
  ConnectionConfig cfg = base_config();
  cfg.sender.early_retransmit = EarlyRetransmitMode::kBothMitigations;
  Connection conn(sim, cfg, sim::Rng(2));
  conn.path().data_link().set_loss_model(
      std::make_unique<net::DeterministicLoss>(std::set<uint64_t>{1}));
  conn.write(2000);  // tail-ish loss on a 2-segment flow arms delayed ER
  // Kill after the dupack (~64 ms) but before the delayed ER fires
  // (~89 ms): the probe's repair ACK is silenced and the sender must
  // RTO its way to an abort without leaking the ER timer.
  sim.schedule_in(70_ms, [&conn] { conn.path().kill_client(); });
  sim.run(sim::Time::seconds(300));
  EXPECT_TRUE(conn.sender().aborted());
  EXPECT_TRUE(sim.idle());  // the ER timer did not leak
}

TEST(FailureInjection, WriteDuringLossState) {
  sim::Simulator sim;
  ConnectionConfig cfg = base_config();
  cfg.sender.max_rto_backoffs = 10;
  Connection conn(sim, cfg, sim::Rng(3));
  // Drop everything for a while so the sender RTOs into Loss, then heal.
  auto composite = std::make_unique<net::CompositeLoss>();
  composite->add(std::make_unique<net::DeterministicLoss>(
      std::set<uint64_t>{1, 2, 3, 4, 5}));
  conn.path().data_link().set_loss_model(std::move(composite));
  conn.write(5000);
  sim.schedule_in(1500_ms, [&conn] { conn.write(10'000); });  // mid-Loss
  sim.run(sim::Time::seconds(120));
  EXPECT_TRUE(conn.sender().all_acked());
  EXPECT_EQ(conn.receiver().rcv_nxt(), 15'000u);
}

TEST(FailureInjection, ZeroByteWriteIsNoop) {
  sim::Simulator sim;
  Connection conn(sim, base_config(), sim::Rng(4));
  conn.write(0);
  EXPECT_EQ(conn.sender().snd_nxt(), 0u);
  sim.run(sim::Time::seconds(1));
  EXPECT_TRUE(sim.idle());
}

TEST(FailureInjection, DuplicateAndAncientAcksIgnoredSafely) {
  sim::Simulator sim;
  Connection conn(sim, base_config(), sim::Rng(5));
  const Metrics& m = conn.sender().metrics();
  conn.write(10'000);
  sim.run(sim::Time::seconds(5));
  ASSERT_TRUE(conn.sender().all_acked());
  // Replay stale ACKs straight into the sender.
  net::Segment stale;
  stale.is_ack = true;
  stale.ack = 2000;
  stale.rwnd = 1 << 20;
  for (int i = 0; i < 10; ++i) conn.sender().on_ack_segment(stale);
  EXPECT_EQ(conn.sender().state(), TcpState::kOpen);
  EXPECT_EQ(conn.sender().snd_una(), 10'000u);
  EXPECT_EQ(m.fast_recovery_events, 0u);
}

TEST(FailureInjection, AckBeyondSndNxtIsTolerated) {
  sim::Simulator sim;
  Connection conn(sim, base_config(), sim::Rng(6));
  conn.write(5000);
  net::Segment bogus;
  bogus.is_ack = true;
  bogus.ack = 50'000;  // acknowledges data never sent
  bogus.rwnd = 1 << 20;
  conn.sender().on_ack_segment(bogus);
  // The sender takes the forward progress it can prove and stays sane.
  sim.run(sim::Time::seconds(10));
  EXPECT_TRUE(conn.sender().all_acked());
}

TEST(FailureInjection, SackBlocksOutsideWindowIgnored) {
  sim::Simulator sim;
  Connection conn(sim, base_config(), sim::Rng(7));
  conn.write(5000);
  net::Segment weird;
  weird.is_ack = true;
  weird.ack = 0;
  weird.rwnd = 1 << 20;
  weird.sacks.push_back({100'000, 101'000});  // beyond snd.nxt
  weird.sacks.push_back({0, 0});              // empty block
  conn.sender().on_ack_segment(weird);
  EXPECT_EQ(conn.sender().pipe_bytes(), 5000u);  // nothing marked
  sim.run(sim::Time::seconds(10));
  EXPECT_TRUE(conn.sender().all_acked());
}

TEST(FailureInjection, RepeatedKillClientIsIdempotent) {
  sim::Simulator sim;
  Connection conn(sim, base_config(), sim::Rng(8));
  conn.write(5000);
  conn.path().kill_client();
  conn.path().kill_client();
  sim.run(sim::Time::seconds(300));
  EXPECT_TRUE(conn.sender().aborted());
}

TEST(FailureInjection, AbortStopsAllTimers) {
  sim::Simulator sim;
  ConnectionConfig cfg = base_config();
  cfg.sender.tail_loss_probe = true;
  cfg.sender.early_retransmit = EarlyRetransmitMode::kBothMitigations;
  Connection conn(sim, cfg, sim::Rng(9));
  conn.path().kill_client();
  conn.write(20'000);
  sim.run(sim::Time::seconds(600));
  EXPECT_TRUE(conn.sender().aborted());
  EXPECT_TRUE(sim.idle());  // nothing left scheduled: no timer leaks
}

TEST(FailureInjection, MassiveWriteDoesNotExplodeMemoryOrTime) {
  sim::Simulator sim;
  ConnectionConfig cfg = base_config();
  cfg.path = net::Path::Config::symmetric(util::DataRate::mbps(100),
                                          20_ms, 500);
  cfg.sender.handshake_rtt = 20_ms;
  Connection conn(sim, cfg, sim::Rng(10));
  conn.write(50'000'000);  // 50 MB
  sim.run(sim::Time::seconds(60));
  EXPECT_TRUE(conn.sender().all_acked());
}

}  // namespace
}  // namespace prr::tcp
