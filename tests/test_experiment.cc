// Experiment harness: reproducibility, common-random-numbers pairing
// across arms, aggregate consistency, and the chaos-mode safety net
// (invariant checking, quarantine, deterministic replay).
#include <gtest/gtest.h>

#include "exp/experiment.h"
#include "exp/scenarios.h"
#include "workload/web_workload.h"

namespace prr::exp {
namespace {

RunOptions small_run(int connections = 300, uint64_t seed = 77) {
  RunOptions o;
  o.connections = connections;
  o.seed = seed;
  return o;
}

TEST(Experiment, SameSeedReproducesExactly) {
  workload::WebWorkload pop;
  ArmResult a = run_arm(pop, ArmConfig::prr_arm(), small_run());
  ArmResult b = run_arm(pop, ArmConfig::prr_arm(), small_run());
  EXPECT_EQ(a.metrics.data_segments_sent, b.metrics.data_segments_sent);
  EXPECT_EQ(a.metrics.retransmits_total, b.metrics.retransmits_total);
  EXPECT_EQ(a.metrics.timeouts_total, b.metrics.timeouts_total);
  EXPECT_EQ(a.recovery_log.count(), b.recovery_log.count());
  EXPECT_EQ(a.latency.responses().size(), b.latency.responses().size());
}

TEST(Experiment, DifferentSeedsDiffer) {
  workload::WebWorkload pop;
  ArmResult a = run_arm(pop, ArmConfig::prr_arm(), small_run(300, 1));
  ArmResult b = run_arm(pop, ArmConfig::prr_arm(), small_run(300, 2));
  EXPECT_NE(a.metrics.data_segments_sent, b.metrics.data_segments_sent);
}

TEST(Experiment, ArmsShareSamplePaths) {
  // Common random numbers: the drawn workload totals (bytes, responses)
  // must match exactly across arms. Abandoned clients are excluded —
  // they truncate the response list at an arm-dependent point.
  workload::WebWorkloadParams params;
  params.abandon_fraction = 0;
  workload::WebWorkload pop(params);
  auto results = run_arms(
      pop, {ArmConfig::linux_arm(), ArmConfig::prr_arm()}, small_run());
  ASSERT_EQ(results.size(), 2u);
  // The drawn workload is bit-identical across arms.
  EXPECT_EQ(results[0].total_workload_bytes,
            results[1].total_workload_bytes);
  EXPECT_GT(results[0].total_workload_bytes, 0u);
  // Completion counts may differ by the occasional straggler that hits
  // the per-connection time limit in one arm only.
  const auto n0 = results[0].latency.responses().size();
  const auto n1 = results[1].latency.responses().size();
  EXPECT_LE(n0 > n1 ? n0 - n1 : n1 - n0, 3u);
}

TEST(Experiment, CleanConnectionsIdenticalAcrossArms) {
  // With losses disabled entirely, recovery algorithms are never invoked
  // and every per-response latency must be bit-identical across arms.
  workload::WebWorkloadParams p;
  p.clean_path_fraction = 1.0;
  p.ack_loss_prob = 0;
  p.reorder_prob = 0;
  p.abandon_fraction = 0;
  workload::WebWorkload pop(p);
  auto results = run_arms(
      pop, {ArmConfig::linux_arm(), ArmConfig::rfc3517_arm(),
            ArmConfig::prr_arm()},
      small_run(200));
  for (std::size_t i = 1; i < results.size(); ++i) {
    ASSERT_EQ(results[0].latency.responses().size(),
              results[i].latency.responses().size());
    for (std::size_t j = 0; j < results[0].latency.responses().size();
         ++j) {
      EXPECT_DOUBLE_EQ(results[0].latency.responses()[j].latency_ms(),
                       results[i].latency.responses()[j].latency_ms())
          << "arm " << i << " response " << j;
    }
    EXPECT_EQ(results[i].metrics.retransmits_total, 0u);
  }
}

TEST(Experiment, MetricsAggregateAcrossConnections) {
  workload::WebWorkload pop;
  ArmResult r = run_arm(pop, ArmConfig::prr_arm(), small_run(100));
  EXPECT_EQ(r.connections_run, 100u);
  EXPECT_EQ(r.metrics.connections, 100u);
  EXPECT_GT(r.metrics.data_segments_sent, 100u);
  EXPECT_GT(r.total_network_transmit_time, sim::Time::zero());
  EXPECT_LE(r.total_loss_recovery_time, r.total_network_transmit_time);
}

TEST(Experiment, ArmConfigFactories) {
  EXPECT_EQ(ArmConfig::prr_arm().recovery, tcp::RecoveryKind::kPrr);
  EXPECT_EQ(ArmConfig::linux_arm().recovery,
            tcp::RecoveryKind::kLinuxRateHalving);
  EXPECT_EQ(ArmConfig::rfc3517_arm().recovery,
            tcp::RecoveryKind::kRfc3517);
  EXPECT_EQ(ArmConfig::prr_arm().cc, tcp::CcKind::kCubic);  // paper §5
}

TEST(Experiment, FractionHelpersBounded) {
  workload::WebWorkload pop;
  ArmResult r = run_arm(pop, ArmConfig::prr_arm(), small_run(200));
  EXPECT_GE(r.retransmission_rate(), 0.0);
  EXPECT_LE(r.retransmission_rate(), 1.0);
  EXPECT_GE(r.fraction_time_in_loss_recovery(), 0.0);
  EXPECT_LE(r.fraction_time_in_loss_recovery(), 1.0);
  EXPECT_GE(r.fraction_bytes_in_fast_recovery(), 0.0);
  EXPECT_LE(r.fraction_bytes_in_fast_recovery(), 1.0);
}

// ---- chaos mode: invariant checking, quarantine, replay ----

TEST(ExperimentChaos, CheckingDoesNotPerturbResults) {
  // The checker only observes: metrics with checking on must be
  // bit-identical to the plain run.
  workload::WebWorkload pop;
  RunOptions plain = small_run(200);
  RunOptions checked = small_run(200);
  checked.check_invariants = true;
  ArmResult a = run_arm(pop, ArmConfig::prr_arm(), plain);
  ArmResult b = run_arm(pop, ArmConfig::prr_arm(), checked);
  EXPECT_EQ(a.metrics.data_segments_sent, b.metrics.data_segments_sent);
  EXPECT_EQ(a.metrics.retransmits_total, b.metrics.retransmits_total);
  EXPECT_EQ(a.metrics.timeouts_total, b.metrics.timeouts_total);
  EXPECT_EQ(a.acks_checked, 0u);
  EXPECT_GT(b.acks_checked, 0u);
}

TEST(ExperimentChaos, StationarySweepHasNoViolations) {
  workload::WebWorkload pop;
  RunOptions opts = small_run(300);
  opts.check_invariants = true;
  auto results = run_arms(
      pop, {ArmConfig::prr_arm(), ArmConfig::rfc3517_arm(),
            ArmConfig::linux_arm()}, opts);
  for (const auto& r : results) {
    EXPECT_EQ(r.invariant_violations, 0u) << r.name;
    EXPECT_TRUE(r.quarantined.empty()) << r.name;
    EXPECT_EQ(r.connections_run, 300u) << r.name;
  }
}

TEST(ExperimentChaos, ChaosSweepHasNoViolations) {
  // Every chaos scenario, all three arms: zero violations, zero
  // quarantined, and every connection still accounted for.
  workload::WebWorkload base;
  for (const ChaosSpec& spec : standard_chaos_suite()) {
    ChaosPopulation pop(base, spec.profile);
    RunOptions opts = small_run(60);
    opts.check_invariants = true;
    opts.scenario = spec.name;
    auto results = run_arms(pop,
                            {ArmConfig::prr_arm(), ArmConfig::rfc3517_arm(),
                             ArmConfig::linux_arm()},
                            opts);
    for (const auto& r : results) {
      for (const auto& rec : r.quarantined) {
        ADD_FAILURE() << spec.name << ": " << rec.summary();
      }
      EXPECT_EQ(r.invariant_violations, 0u) << spec.name << "/" << r.name;
      EXPECT_EQ(r.connections_run, 60u) << spec.name << "/" << r.name;
      EXPECT_GT(r.acks_checked, 0u) << spec.name << "/" << r.name;
    }
  }
}

TEST(ExperimentChaos, ChaosPopulationPreservesBaseSample) {
  // The fault draw must come from the reserved sub-stream: the base part
  // of the sample (workload, network) is bit-identical with and without
  // chaos decoration.
  workload::WebWorkload base;
  ChaosPopulation chaotic(base, ChaosSpec::everything().profile);
  for (uint64_t id = 0; id < 50; ++id) {
    sim::Rng rng = sim::Rng(9).fork(id).fork(100);
    workload::ConnectionSample plain = base.sample(rng);
    workload::ConnectionSample chaos = chaotic.sample(rng);
    EXPECT_EQ(plain.rtt, chaos.rtt);
    EXPECT_EQ(plain.bandwidth.bits_per_second(), chaos.bandwidth.bits_per_second());
    EXPECT_EQ(plain.responses.size(), chaos.responses.size());
    for (std::size_t i = 0; i < plain.responses.size(); ++i) {
      EXPECT_EQ(plain.responses[i].bytes, chaos.responses[i].bytes);
    }
    EXPECT_TRUE(plain.faults.empty());
  }
}

TEST(ExperimentChaos, InjectedViolationIsQuarantinedAndRunContinues) {
  workload::WebWorkload pop;
  RunOptions opts = small_run(50);
  opts.check_invariants = true;
  opts.scenario = "injection-test";
  opts.inject_violation_connection = 17;
  opts.inject_violation_on_ack = 2;
  ArmResult r = run_arm(pop, ArmConfig::prr_arm(), opts);

  // Graceful degradation: all 50 connections ran despite the trip.
  EXPECT_EQ(r.connections_run, 50u);
  ASSERT_EQ(r.quarantined.size(), 1u);
  const QuarantineRecord& rec = r.quarantined[0];
  EXPECT_EQ(rec.connection_id, 17u);
  EXPECT_EQ(rec.seed, opts.seed);
  EXPECT_EQ(rec.arm_name, "PRR");
  EXPECT_EQ(rec.scenario, "injection-test");
  ASSERT_EQ(rec.violations.size(), 1u);
  EXPECT_EQ(rec.violations[0].kind, tcp::InvariantKind::kInjected);
  EXPECT_NE(rec.summary().find("injected"), std::string::npos);
}

TEST(ExperimentChaos, ReplayReproducesQuarantinedConnection) {
  workload::WebWorkload base;
  ChaosPopulation pop(base, ChaosSpec::everything().profile);
  RunOptions opts = small_run(40);
  opts.check_invariants = true;
  opts.inject_violation_connection = 23;
  opts.inject_violation_on_ack = 4;
  ArmConfig arm = ArmConfig::prr_arm();
  ArmResult r = run_arm(pop, arm, opts);
  ASSERT_EQ(r.quarantined.size(), 1u);

  ReplayResult replayed = replay(pop, arm, opts, r.quarantined[0]);
  EXPECT_TRUE(replayed.reproduced(r.quarantined[0]));
  ASSERT_EQ(replayed.violations.size(), 1u);
  // Deterministic: same kind at the same simulated instant.
  EXPECT_EQ(replayed.violations[0].kind,
            r.quarantined[0].violations[0].kind);
  EXPECT_EQ(replayed.violations[0].at, r.quarantined[0].violations[0].at);
  EXPECT_EQ(replayed.violations[0].detail,
            r.quarantined[0].violations[0].detail);

  // Replaying twice is also deterministic.
  ReplayResult again = replay(pop, arm, opts, r.quarantined[0]);
  EXPECT_EQ(again.violations.size(), replayed.violations.size());
  EXPECT_EQ(again.acks_checked, replayed.acks_checked);
}

TEST(ExperimentChaos, ReplayOfHealthyConnectionFindsNothing) {
  workload::WebWorkload pop;
  RunOptions opts = small_run(10);
  QuarantineRecord healthy;
  healthy.seed = opts.seed;
  healthy.connection_id = 3;
  healthy.arm_name = "PRR";
  ReplayResult replayed = replay(pop, ArmConfig::prr_arm(), opts, healthy);
  EXPECT_TRUE(replayed.violations.empty());
  EXPECT_TRUE(replayed.exception.empty());
  // A record with no recorded failure cannot be "reproduced".
  EXPECT_FALSE(replayed.reproduced(healthy));
}

}  // namespace
}  // namespace prr::exp
