// Video streaming over a constrained path: one progressive-HTTP video
// transfer (initial burst, then encoder-rate throttling) on an
// India-like path, showing the recovery machinery of a long flow —
// recovery episodes, time in loss recovery, and goodput per algorithm.
//
// Usage: video_streaming [algorithm: prr|linux|rfc3517] [seed]
#include <cstdio>
#include <cstring>
#include <memory>

#include "exp/experiment.h"
#include "net/loss_model.h"
#include "sim/simulator.h"
#include "tcp/connection.h"
#include "util/table.h"
#include "workload/video_workload.h"

using namespace prr;

int main(int argc, char** argv) {
  tcp::RecoveryKind kind = tcp::RecoveryKind::kPrr;
  const char* name = "prr";
  if (argc > 1) {
    name = argv[1];
    if (std::strcmp(argv[1], "linux") == 0)
      kind = tcp::RecoveryKind::kLinuxRateHalving;
    else if (std::strcmp(argv[1], "rfc3517") == 0)
      kind = tcp::RecoveryKind::kRfc3517;
  }
  const uint64_t seed = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 7;

  workload::VideoWorkload pop;
  sim::Rng rng(seed);
  workload::ConnectionSample sample = pop.sample(rng.fork(100));

  sim::Simulator sim;
  tcp::ConnectionConfig cfg;
  cfg.sender.recovery = kind;
  cfg.sender.handshake_rtt = sample.rtt;
  cfg.receiver.dsack_enabled = sample.client_dsack;
  cfg.path = net::Path::Config::symmetric(sample.bandwidth, sample.rtt,
                                          sample.queue_packets);

  stats::RecoveryLog rlog;
  tcp::Connection conn(sim, cfg, rng.fork(101), &rlog);
  const tcp::Metrics& metrics = conn.sender().metrics();
  if (sample.loss.p_good_to_bad > 0) {
    conn.path().data_link().set_loss_model(
        std::make_unique<net::GilbertElliottLoss>(sample.loss,
                                                  rng.fork(102)));
  }

  stats::LatencyTracker latency;
  http::ServerApp app(sim, conn, sample.responses, &latency);
  app.start();
  sim.run(sim::Time::seconds(900));

  const auto& resp = latency.responses().at(0);
  std::printf("video transfer with %s recovery\n", name);
  std::printf("  path: %.2f Mbps, RTT %lld ms, queue %zu pkts, burst "
              "loss p=%.4f\n",
              sample.bandwidth.mbps_d(), (long long)sample.rtt.ms(),
              sample.queue_packets, sample.loss.p_good_to_bad);
  std::printf("  transfer: %llu bytes in %.1f s (goodput %.0f kbps)\n",
              (unsigned long long)resp.bytes, resp.latency_ms() / 1000.0,
              resp.bytes * 8.0 / resp.latency_ms());
  std::printf("  network transmit time: %.1f s, in loss recovery: %.1f s "
              "(%.0f%%)\n",
              conn.sender().network_transmit_time().seconds_d(),
              conn.sender().loss_recovery_time().seconds_d(),
              conn.sender().network_transmit_time().seconds_d() > 0
                  ? conn.sender().loss_recovery_time() /
                        conn.sender().network_transmit_time() * 100
                  : 0.0);
  std::printf("  recovery episodes: %zu, fast retransmits: %llu, "
              "timeouts: %llu, lost fast retransmits: %llu\n",
              rlog.count(), (unsigned long long)metrics.fast_retransmits,
              (unsigned long long)metrics.timeouts_total,
              (unsigned long long)metrics.lost_fast_retransmits);

  util::Table t({"episode", "start [s]", "dur [ms]", "retx",
                 "burst [segs]", "cwnd after [segs]", "timeout?"});
  int i = 0;
  for (const auto& e : rlog.events()) {
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
