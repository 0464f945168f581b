// TCP invariant checker: every paper scenario and recovery algorithm runs
// violation-free under per-ACK checking (the §3 bounds hold on the real
// state machine, not just the isolated PrrState), synthetic injection
// exercises the detection plumbing, and teardown checks catch nothing on
// clean and aborted connections alike.
#include <gtest/gtest.h>

#include <memory>

#include "exp/scenarios.h"
#include "net/loss_model.h"
#include "sim/simulator.h"
#include "tcp/connection.h"
#include "tcp/invariants.h"

namespace prr::tcp {
namespace {

using namespace prr::sim::literals;

// ---- all paper vectors, violation-free ----

TEST(Invariants, AllFigureScenariosRunViolationFree) {
  const RecoveryKind kinds[] = {RecoveryKind::kPrr, RecoveryKind::kRfc3517,
                                RecoveryKind::kLinuxRateHalving};
  const core::ReductionBound bounds[] = {core::ReductionBound::kSlowStart,
                                         core::ReductionBound::kConservative,
                                         core::ReductionBound::kUnlimited};
  int figure = 0;
  for (auto make : {&exp::FigureScenario::fig2, &exp::FigureScenario::fig3,
                    &exp::FigureScenario::fig4}) {
    ++figure;
    for (RecoveryKind kind : kinds) {
      for (core::ReductionBound bound : bounds) {
        exp::FigureScenario s = (*make)(kind);
        s.prr_bound = bound;
        s.check_invariants = true;
        exp::FigureRun run = exp::run_figure_scenario(s);
        EXPECT_GT(run.acks_checked, 0u);
        for (const auto& v : run.violations) {
          ADD_FAILURE() << "fig" << (figure + 1) << " kind "
                        << static_cast<int>(kind) << " bound "
                        << static_cast<int>(bound) << ": ["
                        << to_string(v.kind) << " @ " << v.at.ms() << "ms] "
                        << v.detail;
        }
      }
    }
  }
}

// ---- connection-level checks ----

ConnectionConfig checked_config() {
  ConnectionConfig cfg;
  cfg.sender.mss = 1000;
  cfg.sender.handshake_rtt = 60_ms;
  cfg.path =
      net::Path::Config::symmetric(util::DataRate::mbps(4), 60_ms, 100);
  return cfg;
}

TEST(Invariants, CleanTransferIsViolationFree) {
  sim::Simulator sim;
  Connection conn(sim, checked_config(), sim::Rng(1));
  InvariantChecker checker(sim, conn.sender());
  conn.write(50'000);
  sim.run(sim::Time::seconds(60));
  ASSERT_TRUE(conn.sender().all_acked());
  checker.finalize();
  EXPECT_TRUE(checker.ok());
  EXPECT_GT(checker.acks_checked(), 0u);
}

TEST(Invariants, LossRecoveryIsViolationFree) {
  for (RecoveryKind kind : {RecoveryKind::kPrr, RecoveryKind::kRfc3517,
                            RecoveryKind::kLinuxRateHalving}) {
    sim::Simulator sim;
    ConnectionConfig cfg = checked_config();
    cfg.sender.recovery = kind;
    Connection conn(sim, cfg, sim::Rng(2));
    const Metrics& m = conn.sender().metrics();
    conn.path().data_link().set_loss_model(
        std::make_unique<net::DeterministicLoss>(
            std::set<uint64_t>{2, 3, 11, 17}));
    InvariantChecker checker(sim, conn.sender());
    conn.write(60'000);
    sim.run(sim::Time::seconds(60));
    ASSERT_TRUE(conn.sender().all_acked());
    EXPECT_GT(m.fast_recovery_events, 0u);
    checker.finalize();
    for (const auto& v : checker.violations()) {
      ADD_FAILURE() << "kind " << static_cast<int>(kind) << ": ["
                    << to_string(v.kind) << "] " << v.detail;
    }
  }
}

TEST(Invariants, AbortedConnectionPassesTeardownChecks) {
  // Client dies mid-recovery; the sender backs off to an abort. The
  // timer-leak teardown check must pass (abort stops all loss timers).
  sim::Simulator sim;
  ConnectionConfig cfg = checked_config();
  cfg.sender.max_rto_backoffs = 3;
  Connection conn(sim, cfg, sim::Rng(3));
  InvariantChecker checker(sim, conn.sender());
  conn.write(30'000);
  sim.schedule_in(100_ms, [&conn] { conn.path().kill_client(); });
  sim.run(sim::Time::seconds(300));
  ASSERT_TRUE(conn.sender().aborted());
  checker.finalize();
  EXPECT_TRUE(checker.ok());
}

TEST(Invariants, InjectionRecordsSyntheticViolation) {
  sim::Simulator sim;
  Connection conn(sim, checked_config(), sim::Rng(4));
  InvariantChecker::Config ccfg;
  ccfg.inject_on_ack = 3;
  InvariantChecker checker(sim, conn.sender(), ccfg);
  conn.write(50'000);
  sim.run(sim::Time::seconds(60));
  checker.finalize();
  ASSERT_EQ(checker.violations().size(), 1u);
  EXPECT_EQ(checker.violations()[0].kind, InvariantKind::kInjected);
  EXPECT_FALSE(checker.ok());
  EXPECT_GT(checker.violations()[0].at, sim::Time::zero());
}

TEST(Invariants, CheckerChainsWithExistingHook) {
  // A listener registered before the checker keeps seeing every
  // processed ACK, and so does the checker.
  sim::Simulator sim;
  Connection conn(sim, checked_config(), sim::Rng(5));
  struct AckCounter final : SenderEvents {
    uint64_t acks = 0;
    void on_ack_processed(const net::Segment&) override { ++acks; }
  } prior;
  conn.sender().add_listener(&prior);
  InvariantChecker checker(sim, conn.sender());
  conn.write(20'000);
  sim.run(sim::Time::seconds(30));
  checker.finalize();
  EXPECT_GT(prior.acks, 0u);
  EXPECT_EQ(prior.acks, checker.acks_checked());
  EXPECT_TRUE(checker.ok());
}

TEST(Invariants, FinalizeIsIdempotent) {
  sim::Simulator sim;
  Connection conn(sim, checked_config(), sim::Rng(6));
  InvariantChecker checker(sim, conn.sender());
  conn.write(10'000);
  sim.run(sim::Time::seconds(30));
  checker.finalize();
  const std::size_t n = checker.violations().size();
  checker.finalize();
  checker.finalize();
  EXPECT_EQ(checker.violations().size(), n);
}

TEST(Invariants, KindNamesAreStable) {
  // Quarantine records serialize these names; keep them meaningful.
  EXPECT_STREQ(to_string(InvariantKind::kSndUnaRegressed),
               "snd_una_regressed");
  EXPECT_STREQ(to_string(InvariantKind::kPrrBeyondSlowStart),
               "prr_beyond_slow_start");
  EXPECT_STREQ(to_string(InvariantKind::kTimerLeak), "timer_leak");
  EXPECT_STREQ(to_string(InvariantKind::kInjected), "injected");
}

}  // namespace
}  // namespace prr::tcp
