// Serial before/after digest guard for the allocation-free hot-path
// rework: exhaustive fingerprints of the aggregates behind the paper's
// table/figure benches (web three-arm sweep, YouTube bulk arms, and an
// invariant-checked run), computed serially with fixed seeds. The golden
// constants were captured on the tree immediately before the event-queue
// slot-map / inline-callback / zero-copy-segment refactor; any change in
// event ordering, RNG draw sequence, or per-ACK arithmetic shows up as a
// digest mismatch. The parallel analogue (thread-count invariance) lives
// in test_parallel_experiment.cc and bench/scheduler_equivalence_gate.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "exp/experiment.h"
#include "workload/video_workload.h"
#include "workload/web_workload.h"

namespace prr {
namespace {

class Fnv {
 public:
  void mix(uint64_t v) {
    h_ ^= v;
    h_ *= 1099511628211ull;
  }
  void mix_time(sim::Time t) { mix(static_cast<uint64_t>(t.ns())); }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 1469598103934665603ull;
};

uint64_t fingerprint(const std::vector<exp::ArmResult>& results) {
  Fnv f;
  for (const auto& r : results) {
    const tcp::Metrics& m = r.metrics;
    // Every counter the tables consume.
    f.mix(m.data_segments_sent);
    f.mix(m.bytes_sent);
    f.mix(m.retransmits_total);
    f.mix(m.fast_retransmits);
    f.mix(m.timeout_retransmits);
    f.mix(m.slow_start_retransmits);
    f.mix(m.failed_retransmits);
    f.mix(m.timeouts_total);
    f.mix(m.timeouts_in_open);
    f.mix(m.timeouts_in_disorder);
    f.mix(m.timeouts_in_recovery);
    f.mix(m.timeouts_exp_backoff);
    f.mix(m.fast_recovery_events);
    f.mix(m.dsacks_received);
    f.mix(m.recoveries_with_dsack);
    f.mix(m.lost_retransmits_detected);
    f.mix(m.lost_fast_retransmits);
    f.mix(m.undo_events);
    f.mix(m.spurious_retransmits);
    f.mix(m.spurious_rto_undone);
    f.mix(m.tlp_probes_sent);
    f.mix(m.er_triggered);
    f.mix(m.er_delayed_cancelled);
    f.mix(m.er_spurious);
    f.mix(m.connections);
    f.mix(m.connections_aborted);
    // The full per-response latency sequence (ns-exact).
    for (const auto& resp : r.latency.responses()) {
      f.mix(resp.bytes());
      f.mix_time(resp.first_byte_sent());
      f.mix_time(resp.last_byte_acked());
      f.mix(resp.had_retransmit() ? 1 : 0);
      f.mix(resp.completed() ? 1 : 0);
    }
    // The full per-recovery-event sequence.
    for (const auto& ev : r.recovery_log.events()) {
      f.mix_time(ev.start);
      f.mix_time(ev.end);
      f.mix(ev.pipe_at_start);
      f.mix(ev.ssthresh);
      f.mix(ev.cwnd_at_start);
      f.mix(ev.cwnd_at_exit);
      f.mix(ev.cwnd_after_exit);
      f.mix(ev.pipe_at_exit);
      f.mix(ev.retransmits);
      f.mix(ev.bytes_sent_during);
      f.mix(ev.max_burst_segments);
      f.mix(ev.interrupted_by_timeout ? 1 : 0);
      f.mix(ev.completed ? 1 : 0);
      f.mix(ev.slow_start_after ? 1 : 0);
    }
    f.mix_time(r.total_network_transmit_time);
    f.mix_time(r.total_loss_recovery_time);
    f.mix(r.connections_run);
    f.mix(r.total_workload_bytes);
    f.mix(static_cast<uint64_t>(r.quarantined.size()));
    f.mix(r.invariant_violations);
  }
  return f.value();
}

// Captured from the pre-refactor tree (see file comment). Regenerate
// only for an intentional behaviour change, never for a perf-only PR.
constexpr uint64_t kWebThreeArmGolden = 0x3a2286faaebd8028ull;
constexpr uint64_t kVideoBulkGolden = 0x3cda8a2b0518216cull;
constexpr uint64_t kInvariantCheckedGolden = 0x56fe9feb76384d91ull;

TEST(SerialDigest, WebThreeArmSweepBitIdentical) {
  workload::WebWorkload pop;
  exp::RunOptions opts;
  opts.connections = 300;
  opts.seed = 20110501;
  opts.threads = 1;
  const auto results = exp::run_arms(
      pop,
      {exp::ArmConfig::linux_arm(), exp::ArmConfig::rfc3517_arm(),
       exp::ArmConfig::prr_arm()},
      opts);
  EXPECT_EQ(fingerprint(results), kWebThreeArmGolden)
      << "actual 0x" << std::hex << fingerprint(results);
}

TEST(SerialDigest, VideoBulkArmsBitIdentical) {
  workload::VideoWorkload pop;
  exp::RunOptions opts;
  opts.connections = 40;
  opts.seed = 915;
  opts.threads = 1;
  const auto results = exp::run_arms(
      pop, {exp::ArmConfig::prr_arm(), exp::ArmConfig::linux_arm()}, opts);
  EXPECT_EQ(fingerprint(results), kVideoBulkGolden)
      << "actual 0x" << std::hex << fingerprint(results);
}

TEST(SerialDigest, InvariantCheckedRunBitIdentical) {
  workload::WebWorkload pop;
  exp::RunOptions opts;
  opts.connections = 150;
  opts.seed = 7;
  opts.threads = 1;
  opts.check_invariants = true;
  const auto results =
      exp::run_arms(pop, {exp::ArmConfig::prr_arm()}, opts);
  EXPECT_EQ(results[0].quarantined.size(), 0u);
  EXPECT_EQ(fingerprint(results), kInvariantCheckedGolden)
      << "actual 0x" << std::hex << fingerprint(results);
}

}  // namespace
}  // namespace prr
