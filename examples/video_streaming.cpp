// Video streaming over a constrained path: one progressive-HTTP video
// transfer (initial burst, then encoder-rate throttling) on an
// India-like path, showing the recovery machinery of a long flow —
// recovery episodes, time in loss recovery, and goodput per algorithm.
// The transfer is connection 0 of the video population, run through the
// experiment harness, so the sample's SACK, timestamp, ECN and ACK-path
// settings all apply.
//
// Usage: video_streaming [algorithm: prr|linux|rfc3517] [seed]
// Exits 2 on an unknown algorithm or a seed that is not a whole integer.
#include <cstdio>
#include <string>

#include "exp/experiment.h"
#include "util/parse_number.h"
#include "util/table.h"
#include "workload/video_workload.h"

using namespace prr;

int main(int argc, char** argv) {
  auto usage = [] {
    std::fprintf(stderr,
                 "usage: video_streaming [prr|linux|rfc3517] [seed]\n");
    return 2;
  };
  const std::string name = argc > 1 ? argv[1] : "prr";
  exp::ArmConfig arm;
  if (name == "prr") {
    arm = exp::ArmConfig::prr_arm();
  } else if (name == "linux") {
    arm = exp::ArmConfig::linux_arm();
  } else if (name == "rfc3517") {
    arm = exp::ArmConfig::rfc3517_arm();
  } else {
    std::fprintf(stderr, "unknown algorithm '%s'\n", name.c_str());
    return usage();
  }
  uint64_t seed = 7;
  if (argc > 3 || (argc > 2 && !util::parse_flag("seed", argv[2], seed))) {
    return usage();
  }

  workload::VideoWorkload pop;
  exp::RunOptions opts;
  opts.connections = 1;
  opts.seed = seed;
  opts.per_connection_limit = sim::Time::seconds(900);
  const exp::ArmResult r = exp::run_arm(pop, arm, opts);
  // The harness draws connection 0's sample from (seed, 0); redraw it
  // here only to print the path.
  const workload::ConnectionSample sample =
      pop.sample(sim::Rng(seed).fork(0).fork(100));

  const auto& resp = r.latency.responses().at(0);
  std::printf("video transfer with %s recovery\n", name.c_str());
  std::printf("  path: %.2f Mbps, RTT %lld ms, queue %zu pkts, burst "
              "loss p=%.4f\n",
              sample.bandwidth.mbps_d(), (long long)sample.rtt.ms(),
              sample.queue_packets, sample.loss.p_good_to_bad);
  std::printf("  transfer: %llu bytes in %.1f s (goodput %.0f kbps)\n",
              (unsigned long long)resp.bytes, resp.latency_ms() / 1000.0,
              resp.bytes * 8.0 / resp.latency_ms());
  std::printf("  network transmit time: %.1f s, in loss recovery: %.1f s "
              "(%.0f%%)\n",
              r.total_network_transmit_time.seconds_d(),
              r.total_loss_recovery_time.seconds_d(),
              r.fraction_time_in_loss_recovery() * 100);
  std::printf("  recovery episodes: %zu, fast retransmits: %llu, "
              "timeouts: %llu, lost fast retransmits: %llu\n",
              r.recovery_log.count(),
              (unsigned long long)r.metrics.fast_retransmits,
              (unsigned long long)r.metrics.timeouts_total,
              (unsigned long long)r.metrics.lost_fast_retransmits);

  util::Table t({"episode", "start [s]", "dur [ms]", "retx",
                 "burst [segs]", "cwnd after [segs]", "timeout?"});
  int i = 0;
  for (const auto& e : r.recovery_log.events()) {
    if (++i > 12) break;  // first dozen is plenty for a demo
    t.add_row({std::to_string(i), util::Table::fmt(e.start.seconds_d(), 1),
               util::Table::fmt(e.duration().ms_d(), 0),
               std::to_string(e.retransmits),
               std::to_string(e.max_burst_segments),
               util::Table::fmt(e.cwnd_after_exit_segs(), 0),
               e.interrupted_by_timeout ? "yes" : "no"});
  }
  std::printf("%s", t.to_string().c_str());
  return 0;
}
