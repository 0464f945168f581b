// Pooled-connection determinism: RunOptions::pool_connections recycles
// one Simulator/Connection/ServerApp arena per worker through the
// reset() protocol, and "fresh == reset by construction" means a pooled
// sweep must reproduce an unpooled sweep exactly — every counter, every
// sample vector, every quarantine record — on clean and chaotic
// populations alike, serial and parallel.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <type_traits>
#include <vector>

#include "exp/experiment.h"
#include "exp/scenarios.h"
#include "obs/store/store_format.h"
#include "obs/store/store_reader.h"
#include "workload/video_workload.h"
#include "workload/web_workload.h"

namespace prr::exp {
namespace {

void expect_identical(const ArmResult& fresh, const ArmResult& pooled) {
  static_assert(std::is_trivially_copyable_v<tcp::Metrics>);
  EXPECT_EQ(
      std::memcmp(&fresh.metrics, &pooled.metrics, sizeof(tcp::Metrics)),
      0)
      << "metrics differ: {" << fresh.metrics.summary() << "} vs {"
      << pooled.metrics.summary() << "}";
  EXPECT_EQ(fresh.connections_run, pooled.connections_run);
  EXPECT_EQ(fresh.total_workload_bytes, pooled.total_workload_bytes);
  EXPECT_EQ(fresh.total_network_transmit_time,
            pooled.total_network_transmit_time);
  EXPECT_EQ(fresh.total_loss_recovery_time,
            pooled.total_loss_recovery_time);
  EXPECT_EQ(fresh.acks_checked, pooled.acks_checked);
  EXPECT_EQ(fresh.invariant_violations, pooled.invariant_violations);

  const auto& fe = fresh.recovery_log.events();
  const auto& pe = pooled.recovery_log.events();
  ASSERT_EQ(fe.size(), pe.size());
  for (std::size_t i = 0; i < fe.size(); ++i) {
    SCOPED_TRACE("recovery event " + std::to_string(i));
    EXPECT_EQ(fe[i].start, pe[i].start);
    EXPECT_EQ(fe[i].end, pe[i].end);
    EXPECT_EQ(fe[i].cwnd_at_start, pe[i].cwnd_at_start);
    EXPECT_EQ(fe[i].cwnd_at_exit, pe[i].cwnd_at_exit);
    EXPECT_EQ(fe[i].retransmits, pe[i].retransmits);
    EXPECT_EQ(fe[i].bytes_sent_during, pe[i].bytes_sent_during);
  }

  const auto& fr = fresh.latency.responses();
  const auto& pr = pooled.latency.responses();
  ASSERT_EQ(fr.size(), pr.size());
  for (std::size_t i = 0; i < fr.size(); ++i) {
    SCOPED_TRACE("response " + std::to_string(i));
    EXPECT_EQ(fr[i].bytes(), pr[i].bytes());
    EXPECT_EQ(fr[i].first_byte_sent(), pr[i].first_byte_sent());
    EXPECT_EQ(fr[i].last_byte_acked(), pr[i].last_byte_acked());
    EXPECT_EQ(fr[i].had_retransmit(), pr[i].had_retransmit());
    EXPECT_EQ(fr[i].completed(), pr[i].completed());
  }

  ASSERT_EQ(fresh.quarantined.size(), pooled.quarantined.size());
  for (std::size_t i = 0; i < fresh.quarantined.size(); ++i) {
    EXPECT_EQ(fresh.quarantined[i].connection_id,
              pooled.quarantined[i].connection_id);
    EXPECT_EQ(fresh.quarantined[i].fault_summary,
              pooled.quarantined[i].fault_summary);
  }
}

ArmResult run(const workload::Population& pop, RunOptions opts,
              bool pool) {
  opts.pool_connections = pool;
  return run_arm(pop, ArmConfig::prr_arm(), opts);
}

TEST(ConnArena, PooledEqualsFreshWeb) {
  workload::WebWorkload pop;
  RunOptions opts;
  opts.connections = 200;
  opts.seed = 91;
  expect_identical(run(pop, opts, false), run(pop, opts, true));
}

TEST(ConnArena, PooledEqualsFreshVideo) {
  workload::VideoWorkload pop;
  RunOptions opts;
  opts.connections = 60;
  opts.seed = 14;
  expect_identical(run(pop, opts, false), run(pop, opts, true));
}

TEST(ConnArena, PooledEqualsFreshChaosWithQuarantine) {
  // The hardest recycling case: fault schedules, invariant checking, an
  // injected violation, and aborted connections all leave state behind
  // that reset() must fully clear.
  workload::WebWorkload base;
  ChaosPopulation pop(base, ChaosSpec::everything().profile);
  RunOptions opts;
  opts.connections = 96;
  opts.seed = 7;
  opts.check_invariants = true;
  opts.scenario = "arena-chaos";
  opts.inject_violation_connection = 41;
  opts.inject_violation_on_ack = 3;
  const ArmResult fresh = run(pop, opts, false);
  ASSERT_EQ(fresh.quarantined.size(), 1u);
  expect_identical(fresh, run(pop, opts, true));
}

TEST(ConnArena, PooledEqualsFreshAcrossThreads) {
  workload::WebWorkload pop;
  RunOptions opts;
  opts.connections = 150;
  opts.seed = 33;
  opts.threads = 1;
  const ArmResult fresh_serial = run(pop, opts, false);
  opts.threads = 4;
  expect_identical(fresh_serial, run(pop, opts, true));
}

TEST(ConnArena, PooledEqualsFreshTraced) {
  workload::WebWorkload pop;
  RunOptions opts;
  opts.connections = 80;
  opts.seed = 55;
  opts.trace = true;
  opts.collect_episodes = true;
  expect_identical(run(pop, opts, false), run(pop, opts, true));
}

// Video connections cut off by per_connection_limit end with their RTO
// still armed. The pooled arena's Sender outlives the recorder of its
// connection range, so the cancel of that timer on the next reset() (or
// on the arena's destruction after the sweep) must not be traced: not
// into the next connection's ring, and not into a recorder that is
// gone (a use-after-scope under ASan). Stores captured with policy
// "all" must be byte-identical pooled and fresh.
TEST(ConnArena, PooledEqualsFreshCapturedWithArmedTimers) {
  workload::VideoWorkload pop;
  RunOptions opts;
  opts.connections = 24;
  opts.seed = 14;
  opts.per_connection_limit = sim::Time::seconds(3);
  opts.capture = "all";

  auto store_bytes = [&](bool pool) {
    RunOptions o = opts;
    o.store_path = testing::TempDir() + "prr_arena_armed_" +
                   (pool ? "pooled" : "fresh") + ".prrstore";
    run(pop, o, pool);
    const std::string path =
        obs::store_path_for_arm(o.store_path, ArmConfig::prr_arm().name);
    std::ifstream in(path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    return std::make_pair(path, bytes);
  };
  const auto [fresh_path, fresh] = store_bytes(false);
  const auto [pooled_path, pooled] = store_bytes(true);
  ASSERT_FALSE(fresh.empty());
  EXPECT_TRUE(fresh == pooled) << "store bytes differ, pooled vs fresh";

  // The case must really occur: some connection's last record for a
  // timer is its arming, with no fire or cancel after it.
  obs::StoreReader reader;
  std::string err;
  ASSERT_TRUE(obs::StoreReader::open(fresh_path, &reader, &err)) << err;
  int ended_armed = 0;
  for (const uint64_t conn : reader.connections()) {
    std::vector<obs::TraceRecord> recs;
    ASSERT_TRUE(reader.read_connection(conn, &recs));
    std::map<uint8_t, obs::TraceType> last_op;  // timer id -> last op
    for (const obs::TraceRecord& r : recs) {
      if (r.type == obs::TraceType::kTimerSchedule ||
          r.type == obs::TraceType::kTimerFire ||
          r.type == obs::TraceType::kTimerCancel) {
        last_op[r.a] = r.type;
      }
    }
    for (const auto& [timer, op] : last_op) {
      if (op == obs::TraceType::kTimerSchedule) ++ended_armed;
    }
  }
  EXPECT_GT(ended_armed, 0);
  std::remove(fresh_path.c_str());
  std::remove(pooled_path.c_str());
}

}  // namespace
}  // namespace prr::exp
