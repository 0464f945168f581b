// Extension experiment: sender-side pacing on a shallow-buffer variant of
// the Web population. The paper repeatedly observes that bursts — RFC
// 3517's cwnd-pipe refills, post-recovery window restarts, post-stall
// catch-ups — are "hard on the network"; pacing is the general remedy.
// Compares PRR and RFC 3517 with and without pacing where buffers are too
// small to absorb bursts.
#include <cstdio>

#include "bench_common.h"
#include "workload/web_workload.h"

using namespace prr;

namespace {

// Shallow-buffer population: queues sized to the BDP with a low floor,
// so line-rate bursts overflow.
class ShallowBufferWeb final : public workload::Population {
 public:
  workload::ConnectionSample sample(sim::Rng rng) const override {
    auto s = base_.sample(rng);
    const double bdp =
        static_cast<double>(s.bandwidth.bits_per_second()) / 8.0 *
        s.rtt.seconds_d() / 1500.0;
    s.queue_packets = static_cast<std::size_t>(std::max(6.0, bdp));
    return s;
  }

 private:
  workload::WebWorkload base_;
};

}  // namespace

int ext_pacing() {
  bench::print_header(
      "Extension: pacing vs bursts on shallow buffers",
      "expected: pacing removes self-inflicted queue-overflow losses "
      "(fewer retransmissions, recoveries and lost fast retransmits, "
      "with RFC 3517 helped the most) at the cost of longer per-response "
      "serialization for short flows — the classic pacing tradeoff");

  ShallowBufferWeb pop;
  exp::RunOptions opts;
  opts.connections = 8000;
  opts.seed = 17;
  opts.threads = 0;  // parallel sweep: byte-identical to serial

  std::vector<exp::ArmConfig> arms;
  for (auto [name, kind, paced] :
       {std::tuple{"PRR", tcp::RecoveryKind::kPrr, false},
        std::tuple{"PRR + pacing", tcp::RecoveryKind::kPrr, true},
        std::tuple{"RFC 3517", tcp::RecoveryKind::kRfc3517, false},
        std::tuple{"RFC 3517 + pacing", tcp::RecoveryKind::kRfc3517,
                   true}}) {
    exp::ArmConfig a;
    a.name = name;
    a.recovery = kind;
    a.pacing = paced;
    arms.push_back(a);
  }
  auto results = exp::run_arms(pop, arms, opts);

  util::Table t({"arm", "retransmission rate", "RTO timeouts",
                 "fast recoveries", "lost fast retx rate",
                 "lossy q50 [ms]", "lossy mean [ms]"});
  for (const auto& r : results) {
    util::Samples lat = r.latency.latency_ms(
        stats::LatencyTracker::Filter::kWithRetransmit);
    t.add_row({r.name, util::Table::fmt_pct(r.retransmission_rate()),
               std::to_string(r.metrics.timeouts_total),
               std::to_string(r.metrics.fast_recovery_events),
               util::Table::fmt_pct(r.fraction_fast_retransmits_lost()),
               util::Table::fmt(lat.quantile(0.5), 0),
               util::Table::fmt(lat.mean(), 0)});
  }
  std::printf("%s\n", t.to_string().c_str());
  return 0;
}
