#include "exp/scenarios.h"

#include <fstream>

#include "net/loss_model.h"
#include "obs/instrument.h"
#include "sim/simulator.h"
#include "tcp/connection.h"
#include "trace/pcap.h"

namespace prr::exp {

FigureScenario FigureScenario::fig2(tcp::RecoveryKind kind) {
  FigureScenario s;
  s.original_drops = {1, 2, 3, 4};
  s.writes = {{sim::Time::zero(), 20'000},
              {sim::Time::milliseconds(500), 10'000}};
  s.recovery = kind;
  return s;
}

FigureScenario FigureScenario::fig3(tcp::RecoveryKind kind) {
  FigureScenario s;
  s.original_drops = {1, 2, 3, 4, 11, 12, 13, 14, 15, 16};
  s.writes = {{sim::Time::zero(), 20'000},
              {sim::Time::milliseconds(500), 10'000}};
  s.recovery = kind;
  return s;
}

FigureScenario FigureScenario::fig4(tcp::RecoveryKind kind) {
  FigureScenario s;
  s.original_drops = {1};
  // The application stalls after the first 20 segments and catches up
  // mid-recovery while the proportional part is still active (pipe >
  // ssthresh until ~169 ms at this link rate), releasing the banked
  // sending opportunities as a bounded burst.
  s.writes = {{sim::Time::zero(), 20'000},
              {sim::Time::milliseconds(172), 10'000}};
  s.recovery = kind;
  return s;
}

FigureRun run_figure_scenario(const FigureScenario& scenario) {
  sim::Simulator sim;
  FigureRun run;

  tcp::ConnectionConfig cfg;
  cfg.sender.mss = scenario.mss;
  cfg.sender.initial_cwnd_segments = scenario.initial_cwnd_segments;
  cfg.sender.cc = scenario.cc;
  cfg.sender.recovery = scenario.recovery;
  cfg.sender.prr_bound = scenario.prr_bound;
  cfg.receiver.ack_every = scenario.receiver_ack_every;
  cfg.path = net::Path::Config::symmetric(
      util::DataRate::mbps(scenario.link_mbps), scenario.rtt,
      /*queue_packets=*/200);

  tcp::Connection conn(sim, cfg, sim::Rng(1));
  conn.sender().add_listener(&run.recovery_log);
  conn.path().data_link().set_loss_model(
      std::make_unique<net::DeterministicLoss>(scenario.original_drops,
                                               scenario.retransmit_drops));
  std::unique_ptr<tcp::InvariantChecker> checker;
  if (scenario.check_invariants) {
    checker = std::make_unique<tcp::InvariantChecker>(sim, conn.sender());
  }
  // Single instrumentation point: the time-sequence trace and the pcap
  // writer both subscribe to the flight recorder's event stream.
  obs::FlightRecorder recorder;
  obs::Instrument instrument(sim, conn, recorder, /*conn_id=*/0);
  run.trace.attach(instrument);

  std::ofstream pcap_file;
  std::unique_ptr<trace::PcapWriter> pcap;
  if (!scenario.pcap_path.empty()) {
    pcap_file.open(scenario.pcap_path, std::ios::binary);
    pcap = std::make_unique<trace::PcapWriter>(pcap_file);
    pcap->attach(instrument);
  }

  uint64_t total = 0;
  for (const auto& [at, bytes] : scenario.writes) {
    total += bytes;
    sim.schedule_at(at, [&conn, bytes = bytes] { conn.write(bytes); });
  }
  run.total_written = total;

  // Record when every written byte was acknowledged (snd.una never
  // passes write_end, and no ACK arrives at time zero).
  struct CompletionTracker final : tcp::SenderEvents {
    const sim::Simulator& sim;
    uint64_t total;
    sim::Time& at;
    CompletionTracker(const sim::Simulator& s, uint64_t t, sim::Time& a)
        : sim(s), total(t), at(a) {}
    void on_una_advance(uint64_t una) override {
      if (at.is_zero() && una >= total) at = sim.now();
    }
  } tracker(sim, total, run.all_acked_at);
  conn.sender().add_listener(&tracker);

  sim.run(scenario.run_for);

  if (checker) {
    checker->finalize();
    run.violations = checker->violations();
    run.acks_checked = checker->acks_checked();
  }
  run.metrics = conn.sender().metrics();
  run.final_cwnd_bytes = conn.sender().cwnd_bytes();
  run.final_ssthresh_bytes = conn.sender().ssthresh_bytes();
  run.final_state = conn.sender().state();
  return run;
}

ChaosSpec ChaosSpec::blackout() {
  ChaosSpec s;
  s.name = "blackout";
  s.profile.p_blackout = 1.0;
  s.profile.flap_repeats = 1;
  return s;
}

ChaosSpec ChaosSpec::link_flap() {
  ChaosSpec s;
  s.name = "link_flap";
  s.profile.p_blackout = 1.0;
  s.profile.blackout_min = sim::Time::milliseconds(100);
  s.profile.blackout_max = sim::Time::milliseconds(600);
  s.profile.flap_repeats = 4;
  s.profile.flap_gap = sim::Time::milliseconds(400);
  return s;
}

ChaosSpec ChaosSpec::rtt_spike() {
  ChaosSpec s;
  s.name = "rtt_spike";
  s.profile.p_rtt_spike = 1.0;
  return s;
}

ChaosSpec ChaosSpec::bandwidth_shift() {
  ChaosSpec s;
  s.name = "bandwidth_shift";
  s.profile.p_bandwidth_shift = 1.0;
  return s;
}

ChaosSpec ChaosSpec::ack_outage() {
  ChaosSpec s;
  s.name = "ack_outage";
  s.profile.p_ack_outage = 1.0;
  return s;
}

ChaosSpec ChaosSpec::receiver_stall() {
  ChaosSpec s;
  s.name = "receiver_stall";
  s.profile.p_receiver_stall = 1.0;
  return s;
}

ChaosSpec ChaosSpec::everything() {
  ChaosSpec s;
  s.name = "everything";
  s.profile.p_blackout = 0.5;
  s.profile.flap_repeats = 3;
  s.profile.p_bandwidth_shift = 0.5;
  s.profile.p_rtt_spike = 0.5;
  s.profile.p_queue_resize = 0.5;
  s.profile.p_ack_outage = 0.35;
  s.profile.p_receiver_stall = 0.35;
  return s;
}

std::vector<ChaosSpec> standard_chaos_suite() {
  return {ChaosSpec::blackout(),        ChaosSpec::link_flap(),
          ChaosSpec::rtt_spike(),       ChaosSpec::bandwidth_shift(),
          ChaosSpec::ack_outage(),      ChaosSpec::receiver_stall(),
          ChaosSpec::everything()};
}

workload::ConnectionSample ChaosPopulation::sample(sim::Rng rng) const {
  workload::ConnectionSample s = base_.sample(rng);
  // Reserved sub-stream: existing populations fork 100-104, so the fault
  // draw never collides with (or shifts) the base sample's randomness.
  s.faults.merge(net::FaultSchedule::random(profile_, rng.fork(0xFA17)));
  return s;
}

}  // namespace prr::exp
