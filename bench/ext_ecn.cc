// Extension experiment: ECN-marked congestion signals with PRR-paced CWR
// reductions (RFC 6937 explicitly covers non-loss window reductions).
// The paper's servers ran with ECN disabled (§5.1); this shows what the
// same machinery buys once the signal is a mark instead of a drop: the
// entire fast-recovery problem the paper fixes simply disappears for
// congestion that AQM can signal, while PRR still paces the reduction.
#include <cstdio>

#include "bench_common.h"
#include "workload/video_workload.h"

using namespace prr;

namespace {

// Bulk video population on AQM bottlenecks: a marking threshold of a
// third of the queue. Exogenous (GE) losses remain — ECN only removes
// the congestion-drop component.
class AqmVideo final : public workload::Population {
 public:
  explicit AqmVideo(bool mark) : mark_(mark) {}
  workload::ConnectionSample sample(sim::Rng rng) const override {
    auto s = base_.sample(rng);
    if (mark_) s.ecn_mark_threshold = s.queue_packets / 3;
    return s;
  }

 private:
  workload::VideoWorkload base_;
  bool mark_;
};

}  // namespace

int ext_ecn() {
  bench::print_header(
      "Extension: ECN + PRR-paced CWR on bulk video",
      "expected: with AQM marking, congestion is signalled without "
      "drops — CWR events replace a chunk of fast recoveries, cutting "
      "retransmissions while keeping transfer times comparable");

  exp::RunOptions opts;
  opts.connections = 300;
  opts.seed = 23;
  opts.threads = 0;  // parallel sweep: byte-identical to serial

  util::Table t({"arm", "retransmission rate", "FR events", "CWR events",
                 "RTOs", "transmit time [s/conn]"});
  for (auto [name, ecn] : {std::pair{"drop-tail, no ECN", false},
                           std::pair{"AQM marking + ECN", true}}) {
    AqmVideo pop(ecn);
    exp::ArmConfig arm = exp::ArmConfig::prr_arm();
    arm.name = name;
    arm.ecn = ecn;
    exp::ArmResult r = exp::run_arm(pop, arm, opts);
    t.add_row({name, util::Table::fmt_pct(r.retransmission_rate()),
               std::to_string(r.metrics.fast_recovery_events),
               std::to_string(r.metrics.ecn_cwr_events),
               std::to_string(r.metrics.timeouts_total),
               util::Table::fmt(
                   r.total_network_transmit_time.seconds_d() /
                       static_cast<double>(r.connections_run),
                   1)});
  }
  std::printf("%s\n", t.to_string().c_str());
  return 0;
}
