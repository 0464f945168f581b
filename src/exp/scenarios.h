// The paper's §4.1 testbed scenarios: a 100 ms RTT, 1.2 Mbps link,
// 1000-byte MSS, Reno congestion control, scripted application writes and
// deterministic segment drops. Used by the Fig 2/3/4 benches and by the
// integration tests that assert the qualitative behaviours of each
// recovery algorithm.
#pragma once

#include <memory>
#include <string>
#include <set>
#include <utility>
#include <vector>

#include "core/prr.h"
#include "net/fault_schedule.h"
#include "obs/trace_record.h"
#include "sim/time.h"
#include "stats/recovery_log.h"
#include "tcp/invariants.h"
#include "tcp/metrics.h"
#include "tcp/sender.h"
#include "trace/timeseq.h"
#include "workload/population.h"

namespace prr::exp {

struct FigureScenario {
  // 1-based indices of original data segments the network drops.
  std::set<uint64_t> original_drops;
  // Indices of retransmissions to drop (counted over retransmissions).
  std::set<uint64_t> retransmit_drops;
  // Scripted application writes: (time, bytes).
  std::vector<std::pair<sim::Time, uint64_t>> writes;

  tcp::RecoveryKind recovery = tcp::RecoveryKind::kPrr;
  core::ReductionBound prr_bound = core::ReductionBound::kSlowStart;
  tcp::CcKind cc = tcp::CcKind::kNewReno;
  uint32_t mss = 1000;
  uint32_t initial_cwnd_segments = 20;
  sim::Time rtt = sim::Time::milliseconds(100);
  double link_mbps = 1.2;
  sim::Time run_for = sim::Time::seconds(5);
  int receiver_ack_every = 1;  // the paper's traces ACK every segment
  // When non-empty, a Wireshark-compatible capture of the run is written
  // to this path.
  std::string pcap_path;
  // Attach a tcp::InvariantChecker; violations land in
  // FigureRun::violations.
  bool check_invariants = false;

  // Fig 2: server writes 20 kB at t=0 and 10 kB at t=500 ms; the first
  // four segments are dropped.
  static FigureScenario fig2(tcp::RecoveryKind kind);
  // Fig 3: heavy losses — segments 1-4 and 11-16 dropped (PRR).
  static FigureScenario fig3(tcp::RecoveryKind kind);
  // Fig 4: banking — 20 segments with segment 1 lost; the application
  // stalls, then writes 10 more mid-recovery.
  static FigureScenario fig4(tcp::RecoveryKind kind);
};

struct FigureRun {
  trace::TimeSeqTrace trace;
  tcp::Metrics metrics;              // the sender's ledger at the end
  stats::RecoveryLog recovery_log;
  uint64_t final_cwnd_bytes = 0;
  uint64_t final_ssthresh_bytes = 0;
  tcp::TcpState final_state = tcp::TcpState::kOpen;
  sim::Time all_acked_at;            // when snd.una reached write_end
  uint64_t total_written = 0;
  // Populated when FigureScenario::check_invariants is set.
  std::vector<tcp::InvariantViolation> violations;
  uint64_t acks_checked = 0;
  // What the run's flight recorder holds at the end, oldest first, and
  // an `ss -i`-style snapshot of the sender (obs/snapshot.h).
  std::vector<obs::TraceRecord> records;
  std::string snapshot;
};

FigureRun run_figure_scenario(const FigureScenario& scenario);

// ---- Chaos scenarios ----
//
// A ChaosSpec names one fault regime (which path mutations fire, how
// often, how hard). The chaos sweep runs every spec in the suite across
// all recovery arms with invariant checking on; anything that trips is
// quarantined, not fatal.
struct ChaosSpec {
  std::string name;
  net::FaultProfile profile;

  // Single-family regimes, one per fault kind the injector supports.
  static ChaosSpec blackout();         // one dark period mid-transfer
  static ChaosSpec link_flap();        // repeated short dark periods
  static ChaosSpec rtt_spike();        // transient reroute, RTT x1.5-6
  static ChaosSpec bandwidth_shift();  // permanent rate change x0.1-2
  static ChaosSpec ack_outage();       // reverse path goes dark
  static ChaosSpec receiver_stall();   // client stops ACKing, then resumes
  // All families at once with elevated probabilities — the worst case.
  static ChaosSpec everything();
};

// The specs the chaos sweep and robustness bench iterate, in order.
std::vector<ChaosSpec> standard_chaos_suite();

// Decorator: draws the base population's sample unchanged, then attaches
// a random fault schedule from `profile`. The fault draw uses a reserved
// sub-stream (fork 0xFA17) of the per-connection rng, so the base sample
// path — and hence every cross-arm comparison — is identical with and
// without chaos.
class ChaosPopulation final : public workload::Population {
 public:
  ChaosPopulation(const workload::Population& base, net::FaultProfile profile)
      : base_(base), profile_(std::move(profile)) {}

  workload::ConnectionSample sample(sim::Rng rng) const override;

 private:
  const workload::Population& base_;
  net::FaultProfile profile_;
};

}  // namespace prr::exp
