// Thread-count invariance of the parallel experiment harness: every
// aggregate an ArmResult carries must be byte-identical to the serial
// run at any RunOptions::threads, because each connection's sample path
// derives only from (seed, id) and shards are merged in connection-id
// order. Run under TSan in CI (the determinism argument only holds if
// workers really share nothing).
#include <gtest/gtest.h>

#include <cstring>
#include <type_traits>

#include "exp/experiment.h"
#include "exp/scenarios.h"
#include "workload/web_workload.h"

namespace prr::exp {
namespace {

// tcp::Metrics is a flat struct of uint64_t counters (no padding), so
// bytewise equality is exact equality.
::testing::AssertionResult metrics_identical(const tcp::Metrics& a,
                                             const tcp::Metrics& b) {
  static_assert(std::is_trivially_copyable_v<tcp::Metrics>);
  if (std::memcmp(&a, &b, sizeof(tcp::Metrics)) == 0) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << "metrics differ: {" << a.summary() << "} vs {" << b.summary()
         << "}";
}

void expect_identical(const ArmResult& serial, const ArmResult& par,
                      int threads) {
  SCOPED_TRACE("threads=" + std::to_string(threads));
  EXPECT_TRUE(metrics_identical(serial.metrics, par.metrics));
  EXPECT_EQ(serial.connections_run, par.connections_run);
  EXPECT_EQ(serial.total_workload_bytes, par.total_workload_bytes);
  EXPECT_EQ(serial.total_network_transmit_time,
            par.total_network_transmit_time);
  EXPECT_EQ(serial.total_loss_recovery_time, par.total_loss_recovery_time);
  EXPECT_EQ(serial.acks_checked, par.acks_checked);
  EXPECT_EQ(serial.invariant_violations, par.invariant_violations);

  // Recovery log: same events in the same (connection-id) order.
  const auto& se = serial.recovery_log.events();
  const auto& pe = par.recovery_log.events();
  ASSERT_EQ(se.size(), pe.size());
  for (std::size_t i = 0; i < se.size(); ++i) {
    SCOPED_TRACE("recovery event " + std::to_string(i));
    EXPECT_EQ(se[i].start, pe[i].start);
    EXPECT_EQ(se[i].end, pe[i].end);
    EXPECT_EQ(se[i].pipe_at_start, pe[i].pipe_at_start);
    EXPECT_EQ(se[i].ssthresh, pe[i].ssthresh);
    EXPECT_EQ(se[i].cwnd_at_start, pe[i].cwnd_at_start);
    EXPECT_EQ(se[i].cwnd_at_exit, pe[i].cwnd_at_exit);
    EXPECT_EQ(se[i].cwnd_after_exit, pe[i].cwnd_after_exit);
    EXPECT_EQ(se[i].pipe_at_exit, pe[i].pipe_at_exit);
    EXPECT_EQ(se[i].retransmits, pe[i].retransmits);
    EXPECT_EQ(se[i].bytes_sent_during, pe[i].bytes_sent_during);
    EXPECT_EQ(se[i].max_burst_segments, pe[i].max_burst_segments);
    EXPECT_EQ(se[i].interrupted_by_timeout, pe[i].interrupted_by_timeout);
    EXPECT_EQ(se[i].completed, pe[i].completed);
    EXPECT_EQ(se[i].slow_start_after, pe[i].slow_start_after);
  }
  // Aggregate views derived from the log.
  EXPECT_DOUBLE_EQ(serial.recovery_log.fraction_start_below_ssthresh(),
                   par.recovery_log.fraction_start_below_ssthresh());
  EXPECT_DOUBLE_EQ(serial.recovery_log.fraction_with_timeout(),
                   par.recovery_log.fraction_with_timeout());

  // Latency: same responses in the same order, and identical quantiles.
  const auto& sr = serial.latency.responses();
  const auto& pr = par.latency.responses();
  ASSERT_EQ(sr.size(), pr.size());
  for (std::size_t i = 0; i < sr.size(); ++i) {
    SCOPED_TRACE("response " + std::to_string(i));
    EXPECT_EQ(sr[i].bytes(), pr[i].bytes());
    EXPECT_EQ(sr[i].first_byte_sent(), pr[i].first_byte_sent());
    EXPECT_EQ(sr[i].last_byte_acked(), pr[i].last_byte_acked());
    EXPECT_EQ(sr[i].had_retransmit(), pr[i].had_retransmit());
    EXPECT_EQ(sr[i].completed(), pr[i].completed());
  }
  const util::Samples sq = serial.latency.latency_ms();
  const util::Samples pq = par.latency.latency_ms();
  for (double q : {0.1, 0.5, 0.9, 0.99}) {
    EXPECT_DOUBLE_EQ(sq.quantile(q), pq.quantile(q)) << "quantile " << q;
  }

  // Quarantine: same records in the same order.
  ASSERT_EQ(serial.quarantined.size(), par.quarantined.size());
  for (std::size_t i = 0; i < serial.quarantined.size(); ++i) {
    SCOPED_TRACE("quarantine record " + std::to_string(i));
    const QuarantineRecord& s = serial.quarantined[i];
    const QuarantineRecord& p = par.quarantined[i];
    EXPECT_EQ(s.seed, p.seed);
    EXPECT_EQ(s.connection_id, p.connection_id);
    EXPECT_EQ(s.arm_name, p.arm_name);
    EXPECT_EQ(s.scenario, p.scenario);
    EXPECT_EQ(s.fault_summary, p.fault_summary);
    EXPECT_EQ(s.exception, p.exception);
    ASSERT_EQ(s.violations.size(), p.violations.size());
    for (std::size_t v = 0; v < s.violations.size(); ++v) {
      EXPECT_EQ(s.violations[v].kind, p.violations[v].kind);
      EXPECT_EQ(s.violations[v].at, p.violations[v].at);
      EXPECT_EQ(s.violations[v].detail, p.violations[v].detail);
    }
  }
}

TEST(ParallelExperiment, ThreadCountInvariantStationarySweep) {
  workload::WebWorkload pop;
  RunOptions opts;
  opts.connections = 240;
  opts.seed = 91;
  opts.threads = 1;
  const ArmResult serial = run_arm(pop, ArmConfig::prr_arm(), opts);
  for (int threads : {1, 4, 8}) {
    opts.threads = threads;
    expect_identical(serial, run_arm(pop, ArmConfig::prr_arm(), opts),
                     threads);
  }
}

TEST(ParallelExperiment, ThreadCountInvariantAcrossArms) {
  workload::WebWorkload pop;
  RunOptions opts;
  opts.connections = 150;
  opts.seed = 12;
  opts.threads = 1;
  const std::vector<ArmConfig> arms = {
      ArmConfig::prr_arm(), ArmConfig::rfc3517_arm(), ArmConfig::linux_arm()};
  const std::vector<ArmResult> serial = run_arms(pop, arms, opts);
  opts.threads = 4;
  const std::vector<ArmResult> par = run_arms(pop, arms, opts);
  ASSERT_EQ(serial.size(), par.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    SCOPED_TRACE(serial[i].name);
    expect_identical(serial[i], par[i], 4);
  }
}

TEST(ParallelExperiment, ThreadCountInvariantChaosWithInvariantChecking) {
  // The full safety net on a chaotic population: invariant checker
  // attached to every connection, plus one injected violation so the
  // quarantine path itself is exercised across thread counts.
  workload::WebWorkload base;
  ChaosPopulation pop(base, ChaosSpec::everything().profile);
  RunOptions opts;
  opts.connections = 96;
  opts.seed = 7;
  opts.check_invariants = true;
  opts.scenario = "chaos-determinism";
  opts.inject_violation_connection = 41;
  opts.inject_violation_on_ack = 3;
  opts.threads = 1;
  const ArmResult serial = run_arm(pop, ArmConfig::prr_arm(), opts);
  EXPECT_GT(serial.acks_checked, 0u);
  ASSERT_EQ(serial.quarantined.size(), 1u);  // the injected one
  for (int threads : {4, 8}) {
    opts.threads = threads;
    expect_identical(serial, run_arm(pop, ArmConfig::prr_arm(), opts),
                     threads);
  }
}

TEST(ParallelExperiment, ThreadsZeroMeansHardwareConcurrency) {
  workload::WebWorkload pop;
  RunOptions opts;
  opts.connections = 64;
  opts.seed = 3;
  opts.threads = 1;
  const ArmResult serial = run_arm(pop, ArmConfig::prr_arm(), opts);
  opts.threads = 0;
  expect_identical(serial, run_arm(pop, ArmConfig::prr_arm(), opts), 0);
}

TEST(ParallelExperiment, MoreThreadsThanConnections) {
  workload::WebWorkload pop;
  RunOptions opts;
  opts.connections = 3;
  opts.seed = 5;
  opts.threads = 1;
  const ArmResult serial = run_arm(pop, ArmConfig::prr_arm(), opts);
  opts.threads = 16;
  expect_identical(serial, run_arm(pop, ArmConfig::prr_arm(), opts), 16);
  EXPECT_EQ(serial.connections_run, 3u);
}

}  // namespace
}  // namespace prr::exp
