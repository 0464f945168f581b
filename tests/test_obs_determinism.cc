// Tracing must be pure observation: sweep aggregates are bit-identical
// with tracing on or off and at any worker-thread count, the registry's
// deterministic sections merge to the same bytes at any thread count,
// registry counters reconcile exactly with the tcp::Metrics accumulator,
// and quarantine/replay artifacts carry the flight-recorder tail.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "exp/experiment.h"
#include "exp/scenarios.h"
#include "obs/flight_recorder.h"
#include "obs/json.h"
#include "workload/web_workload.h"

namespace prr {
namespace {

class Fnv {
 public:
  void mix(uint64_t v) {
    h_ ^= v;
    h_ *= 1099511628211ull;
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 1469598103934665603ull;
};

// Simulation-outcome fingerprint (metrics, per-response latency, per-
// recovery-event log, totals) — everything except the observability
// artifacts themselves.
uint64_t fingerprint(const exp::ArmResult& r) {
  Fnv f;
  const tcp::Metrics& m = r.metrics;
  f.mix(m.data_segments_sent);
  f.mix(m.bytes_sent);
  f.mix(m.retransmits_total);
  f.mix(m.fast_retransmits);
  f.mix(m.timeouts_total);
  f.mix(m.fast_recovery_events);
  f.mix(m.undo_events);
  f.mix(m.connections_aborted);
  for (const auto& resp : r.latency.responses()) {
    f.mix(resp.bytes);
    f.mix(static_cast<uint64_t>(resp.last_byte_acked.ns()));
  }
  for (const auto& ev : r.recovery_log.events()) {
    f.mix(static_cast<uint64_t>(ev.start.ns()));
    f.mix(static_cast<uint64_t>(ev.end.ns()));
    f.mix(ev.cwnd_at_exit);
    f.mix(ev.retransmits);
  }
  f.mix(static_cast<uint64_t>(r.total_network_transmit_time.ns()));
  f.mix(r.connections_run);
  f.mix(r.total_workload_bytes);
  return f.value();
}

exp::RunOptions base_opts() {
  exp::RunOptions opts;
  opts.connections = 120;
  opts.seed = 20110501;
  opts.threads = 1;
  return opts;
}

TEST(ObsDeterminism, AggregatesIdenticalTracingOnOrOff) {
  workload::WebWorkload pop;
  exp::RunOptions off = base_opts();
  exp::RunOptions on = base_opts();
  on.trace = true;
  on.trace_ring_records = 512;

  const exp::ArmResult r_off = exp::run_arm(pop, exp::ArmConfig::prr_arm(),
                                            off);
  const exp::ArmResult r_on = exp::run_arm(pop, exp::ArmConfig::prr_arm(),
                                           on);
  EXPECT_EQ(fingerprint(r_off), fingerprint(r_on));
  // The deterministic registry sections are also unaffected by tracing.
  EXPECT_EQ(r_off.registry.find_counter("tcp.retransmits_total")->value(),
            r_on.registry.find_counter("tcp.retransmits_total")->value());
  ASSERT_NE(r_on.registry.find_counter("obs.trace.records_written"),
            nullptr);
  EXPECT_GT(r_on.registry.find_counter("obs.trace.records_written")->value(),
            0u);
}

TEST(ObsDeterminism, TracedAggregatesAndRegistryThreadCountInvariant) {
  workload::WebWorkload pop;
  exp::RunOptions opts = base_opts();
  opts.trace = true;
  opts.trace_ring_records = 512;

  const exp::ArmResult serial =
      exp::run_arm(pop, exp::ArmConfig::prr_arm(), opts);
  const std::string serial_json = serial.registry.to_json();
  EXPECT_TRUE(obs::json_valid(serial_json));

  for (int threads : {4, 8}) {
    opts.threads = threads;
    const exp::ArmResult parallel =
        exp::run_arm(pop, exp::ArmConfig::prr_arm(), opts);
    EXPECT_EQ(fingerprint(serial), fingerprint(parallel))
        << "threads=" << threads;
    // Byte-identical registry export: counters, gauges, and histogram
    // buckets all merge deterministically.
    EXPECT_EQ(serial_json, parallel.registry.to_json())
        << "threads=" << threads;
  }
}

// The registry's per-connection fold agrees with the arm fold on plain
// web traffic and under every chaos regime, with the invariant checker
// on and, for the chaos sweeps, a parallel merge.
TEST(ObsDeterminism, RegistryReconcilesWithArmMetrics) {
  auto reconcile = [](const workload::Population& pop,
                      const exp::RunOptions& opts) {
    const exp::ArmResult r =
        exp::run_arm(pop, exp::ArmConfig::prr_arm(), opts);
    EXPECT_EQ(r.invariant_violations, 0u);
    EXPECT_TRUE(r.quarantined.empty());

    const obs::MetricsRegistry& reg = r.registry;
    ASSERT_NE(reg.find_counter("tcp.data_segments_sent"), nullptr);
    EXPECT_EQ(reg.find_counter("tcp.data_segments_sent")->value(),
              r.metrics.data_segments_sent);
    EXPECT_EQ(reg.find_counter("tcp.bytes_sent")->value(),
              r.metrics.bytes_sent);
    EXPECT_EQ(reg.find_counter("tcp.retransmits_total")->value(),
              r.metrics.retransmits_total);
    EXPECT_EQ(reg.find_counter("tcp.timeouts_total")->value(),
              r.metrics.timeouts_total);
    EXPECT_EQ(reg.find_counter("tcp.fast_recovery_events")->value(),
              r.metrics.fast_recovery_events);
    EXPECT_EQ(reg.find_counter("exp.connections_run")->value(),
              r.connections_run);
    // Histogram totals agree with their counter counterparts.
    EXPECT_EQ(reg.find_histogram("tcp.retransmits_per_conn")->sum(),
              r.metrics.retransmits_total);
    EXPECT_EQ(reg.find_histogram("tcp.retransmits_per_conn")->count(),
              r.connections_run);
    ASSERT_NE(reg.find_counter("obs.trace.records_written"), nullptr);
    EXPECT_GT(reg.find_counter("obs.trace.records_written")->value(), 0u);
    EXPECT_TRUE(obs::json_valid(reg.to_json()));
  };

  workload::WebWorkload web;
  exp::RunOptions opts = base_opts();
  opts.trace = true;
  opts.check_invariants = true;
  {
    SCOPED_TRACE("web");
    reconcile(web, opts);
  }
  opts.connections = 400;
  opts.seed = 97;
  opts.threads = 4;
  for (const exp::ChaosSpec& spec : exp::standard_chaos_suite()) {
    SCOPED_TRACE(spec.name);
    const exp::ChaosPopulation pop(web, spec.profile);
    opts.scenario = spec.name;
    reconcile(pop, opts);
  }
}

TEST(ObsDeterminism, QuarantineCarriesTraceTail) {
  workload::WebWorkload pop;
  exp::RunOptions opts = base_opts();
  opts.connections = 30;
  opts.check_invariants = true;
  opts.inject_violation_connection = 11;
  opts.inject_violation_on_ack = 3;
  // The tail is captured when the connection finishes, and the injected
  // violation fires near the start: size the ring (and the kept tail) to
  // hold the connection's whole record stream so the kInvariant record
  // is still in it.
  opts.trace_ring_records = 1u << 16;
  opts.trace_tail_records = 1u << 16;

  const exp::ArmResult r = exp::run_arm(pop, exp::ArmConfig::prr_arm(), opts);
  ASSERT_EQ(r.quarantined.size(), 1u);
  const exp::QuarantineRecord& rec = r.quarantined[0];
  EXPECT_EQ(rec.connection_id, 11u);

  const std::string json = rec.trace_json();
  EXPECT_TRUE(obs::json_valid(json)) << json;
  ASSERT_FALSE(rec.trace_tail.empty());
  // The tail ends at the failure: its last records include the
  // invariant-violation record the checker wrote.
  bool saw_violation = false;
  for (const auto& t : rec.trace_tail) {
    if (t.type == obs::TraceType::kInvariant) saw_violation = true;
    EXPECT_EQ(t.conn, 11u);
  }
  EXPECT_TRUE(saw_violation);
  EXPECT_NE(json.find("\"name\":\"invariant\""), std::string::npos);

  // Replay reproduces the failure and returns the same tail shape.
  const exp::ReplayResult replay =
      exp::replay(pop, exp::ArmConfig::prr_arm(), opts, rec);
  EXPECT_TRUE(replay.reproduced(rec));
  EXPECT_FALSE(replay.trace_tail.empty());
}

}  // namespace
}  // namespace prr
