// §4.3 property bench: robustness of DeliveredData. Sweeps ACK loss and
// stretch-ACK (LRO) factors and reports, per recovery algorithm, how
// precisely each converges to the congestion-control target window
// (|cwnd_after_recovery - ssthresh| in segments) and the recovery
// timeout rate.
//
// Paper: rate halving relies on counting ACKs, so ACK loss and stretch
// ACKs make it under-transmit and end recovery with too-small windows;
// PRR's DeliveredData-based accounting is invariant to how delivery
// notifications are packed into ACKs.
//
// Part 2 is the chaos sweep: every scenario in standard_chaos_suite()
// (blackouts, link flaps, RTT spikes, bandwidth shifts, ACK outages,
// receiver stalls, everything-at-once) runs across all three arms with
// the TCP invariant checker attached to every connection. The table
// reports timeouts, aborted-connection counts, invariant violations and
// quarantined connections — the latter two must be zero on a healthy
// build no matter how hostile the path.
#include <cmath>
#include <cstdio>

#include "bench_common.h"
#include "exp/scenarios.h"
#include "workload/web_workload.h"

using namespace prr;

namespace {

struct Impairment {
  const char* name;
  double ack_loss;
  uint32_t stretch;
};

double mean_exit_error_segs(const exp::ArmResult& r) {
  util::Samples s = r.recovery_log.cwnd_minus_ssthresh_exit_segs();
  double acc = 0;
  for (double v : s.values()) acc += std::abs(v);
  return s.count() == 0 ? 0 : acc / static_cast<double>(s.count());
}

}  // namespace

int prop_robustness() {
  bench::print_header(
      "§4.3 robustness: DeliveredData vs ACK counting under ACK loss and "
      "stretch ACKs",
      "PRR converges to ssthresh regardless of ACK packing; rate halving "
      "(per-ACK accounting) degrades as ACKs are lost or coalesced");

  const Impairment sweeps[] = {
      {"clean ACK path", 0.0, 1},
      {"10% ACK loss", 0.10, 1},
      {"25% ACK loss", 0.25, 1},
      {"LRO stretch x2", 0.0, 2},
      {"LRO stretch x4", 0.0, 4},
      {"20% loss + stretch x2", 0.20, 2},
  };

  util::Table t({"impairment", "arm", "mean |cwnd_exit - ssthresh| [segs]",
                 "timeouts in recovery", "recovery events"});
  for (const auto& imp : sweeps) {
    workload::WebWorkloadParams p;
    p.ack_loss_prob = imp.ack_loss;
    p.stretch_client_fraction = imp.stretch > 1 ? 1.0 : 0.0;
    workload::WebWorkload pop(p);

    // Override the stretch factor through the population by abusing the
    // fraction: build a tiny adapter population instead.
    class StretchPop final : public workload::Population {
     public:
      StretchPop(workload::WebWorkload base, uint32_t k)
          : base_(std::move(base)), k_(k) {}
      workload::ConnectionSample sample(sim::Rng rng) const override {
        auto s = base_.sample(rng);
        s.ack_stretch = k_;
        // An aggressive offload engine: hold ACKs long enough that
        // coalescing actually happens at access-link ACK spacing.
        s.ack_stretch_flush = sim::Time::milliseconds(40);
        return s;
      }

     private:
      workload::WebWorkload base_;
      uint32_t k_;
    } spop(pop, imp.stretch);

    exp::RunOptions opts;
    opts.connections = 5000;
    opts.seed = 31;
    opts.threads = 0;  // parallel sweep: byte-identical to serial
    auto results = exp::run_arms(spop, bench::three_way_arms(), opts);
    for (const auto& r : results) {
      t.add_row({imp.name, r.name,
                 util::Table::fmt(mean_exit_error_segs(r), 2),
                 std::to_string(r.metrics.timeouts_in_recovery),
                 std::to_string(r.recovery_log.count())});
    }
  }
  std::printf("%s\n", t.to_string().c_str());
  std::printf(
      "Expected shape: PRR's exit error stays near zero across all "
      "impairments; Linux's grows with ACK loss and stretch factor.\n");

  bench::print_header(
      "chaos sweep: time-varying path dynamics under invariant checking",
      "no recovery algorithm may violate a TCP invariant (or throw) under "
      "blackouts, flaps, RTT spikes, bandwidth shifts, ACK outages or "
      "receiver stalls — quarantined must read 0 everywhere");

  util::Table chaos({"scenario", "arm", "acks checked", "violations",
                     "quarantined", "timeouts", "aborted conns",
                     "recovery events"});
  uint64_t total_violations = 0;
  std::size_t total_quarantined = 0;
  for (const exp::ChaosSpec& spec : exp::standard_chaos_suite()) {
    workload::WebWorkload base;
    exp::ChaosPopulation pop(base, spec.profile);

    exp::RunOptions opts;
    opts.connections = 600;
    opts.seed = 97;
    opts.threads = 0;  // parallel sweep: byte-identical to serial
    opts.check_invariants = true;
    opts.scenario = spec.name;

    auto results = exp::run_arms(pop, bench::three_way_arms(), opts);
    for (const auto& r : results) {
      chaos.add_row({spec.name, r.name, std::to_string(r.acks_checked),
                     std::to_string(r.invariant_violations),
                     std::to_string(r.quarantined.size()),
                     std::to_string(r.metrics.timeouts_total),
                     std::to_string(r.metrics.connections_aborted),
                     std::to_string(r.recovery_log.count())});
      total_violations += r.invariant_violations;
      total_quarantined += r.quarantined.size();
      for (const auto& rec : r.quarantined) {
        std::printf("QUARANTINED: %s\n", rec.summary().c_str());
      }
    }
  }
  std::printf("%s\n", chaos.to_string().c_str());
  std::printf("chaos total: %llu violation(s), %zu quarantined "
              "connection(s)%s\n",
              (unsigned long long)total_violations, total_quarantined,
              total_violations == 0 && total_quarantined == 0 ? " -- PASS"
                                                              : " -- FAIL");
  return total_violations == 0 && total_quarantined == 0 ? 0 : 1;
}
