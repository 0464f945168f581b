// RFC 2018 §8 SACK reneging: the receiver is allowed to discard data it
// has SACKed but not yet delivered. The sender's defense (Linux's
// tcp_check_sack_reneging analogue) triggers at RTO when the head of the
// window is SACKed yet snd.una never moved over it — a state an honest
// receiver can never produce — and forgets all SACK marks so the
// discarded data becomes retransmittable again.
#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "net/loss_model.h"
#include "sim/simulator.h"
#include "tcp/connection.h"
#include "tcp/invariants.h"

namespace prr::tcp {
namespace {

using namespace prr::sim::literals;

ConnectionConfig renege_config(bool renege_recovery, sim::Time renege_at) {
  ConnectionConfig cfg;
  cfg.sender.mss = 1000;
  cfg.sender.handshake_rtt = 60_ms;
  cfg.sender.renege_recovery = renege_recovery;
  cfg.receiver.renege_at = renege_at;
  cfg.path =
      net::Path::Config::symmetric(util::DataRate::mbps(4), 60_ms, 100);
  return cfg;
}

// Drops segment 2 and its first retransmission, so the receiver holds
// segments 3+ out of order long enough to renege on them.
void arm_hole(Connection& conn) {
  conn.path().data_link().set_loss_model(
      std::make_unique<net::DeterministicLoss>(std::set<uint64_t>{2},
                                               std::set<uint64_t>{1}));
}

TEST(SackReneging, SenderRecoversFromRenegingReceiver) {
  sim::Simulator sim;
  ConnectionConfig cfg = renege_config(/*renege_recovery=*/true, 150_ms);
  Connection conn(sim, cfg, sim::Rng(1));
  InvariantChecker checker(sim, conn.sender());
  arm_hole(conn);
  conn.write(30'000);
  sim.run(sim::Time::seconds(120));

  EXPECT_GT(conn.receiver().reneged_bytes(), 0u)
      << "scenario failed to make the receiver discard OOO data";
  EXPECT_TRUE(conn.sender().all_acked())
      << "renege recovery should retransmit the discarded data";
  EXPECT_FALSE(conn.sender().aborted());
  EXPECT_GE(conn.sender().metrics().sack_reneg_events, 1u);
  EXPECT_EQ(conn.receiver().rcv_nxt(), 30'000u);
  checker.finalize();
  for (const auto& v : checker.violations())
    ADD_FAILURE() << "[" << to_string(v.kind) << "] " << v.detail;
}

TEST(SackReneging, WithoutDefenseTheConnectionWedges) {
  sim::Simulator sim;
  ConnectionConfig cfg = renege_config(/*renege_recovery=*/false, 150_ms);
  Connection conn(sim, cfg, sim::Rng(1));
  arm_hole(conn);
  conn.write(30'000);
  sim.run(sim::Time::seconds(120));

  EXPECT_GT(conn.receiver().reneged_bytes(), 0u);
  // The sender trusts the stale SACK marks forever: the discarded bytes
  // are never retransmitted and the flow cannot complete (it wedges
  // until the RTO-backoff abort gives up on it).
  EXPECT_FALSE(conn.sender().all_acked());
  EXPECT_EQ(conn.sender().metrics().sack_reneg_events, 0u);
  EXPECT_LT(conn.receiver().rcv_nxt(), 30'000u);
}

TEST(SackReneging, HonestLossNeverTriggersTheDefense) {
  // Zero false positives: ordinary loss — even heavy loss with RTOs —
  // must never look like reneging, because an honest receiver never
  // leaves the head of the window SACKed across an RTO.
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    sim::Simulator sim;
    ConnectionConfig cfg =
        renege_config(/*renege_recovery=*/true, sim::Time::zero());
    Connection conn(sim, cfg, sim::Rng(seed));
    net::GilbertElliottLoss::Params p;
    p.p_good_to_bad = 0.02;
    p.loss_in_bad = 0.9;
    conn.path().data_link().set_loss_model(
        std::make_unique<net::GilbertElliottLoss>(
            p, sim::Rng(seed).fork(7)));
    conn.write(100'000);
    sim.run(sim::Time::seconds(300));
    EXPECT_EQ(conn.sender().metrics().sack_reneg_events, 0u)
        << "seed " << seed;
  }
}

TEST(SackReneging, RenegeBeforeAnyLossIsHarmless) {
  // Reneging an empty OOO queue discards nothing and must not disturb
  // the transfer.
  sim::Simulator sim;
  ConnectionConfig cfg = renege_config(/*renege_recovery=*/true, 100_ms);
  Connection conn(sim, cfg, sim::Rng(1));
  conn.write(30'000);
  sim.run(sim::Time::seconds(60));
  EXPECT_TRUE(conn.sender().all_acked());
  EXPECT_EQ(conn.receiver().reneged_bytes(), 0u);
  EXPECT_EQ(conn.sender().metrics().sack_reneg_events, 0u);
}

}  // namespace
}  // namespace prr::tcp
