// N-way experiment harness: runs a population through one or more
// recovery-algorithm arms with common random numbers (identical per-
// connection sample paths across arms), aggregating the statistics every
// paper table consumes. The simulator analogue of the paper's server-
// binned A/B framework (§5.1).
//
// Sweeps shard connections across a worker pool (RunOptions::threads):
// every connection's entire sample path derives from (seed, id), so
// workers share no state, and per-chunk ArmResult accumulators merged in
// connection-id order make the aggregates byte-identical to a serial run
// at any thread count.
//
// Production-scale safety net: with `RunOptions::check_invariants` every
// connection runs under a tcp::InvariantChecker, and a connection that
// trips an invariant or throws is *quarantined* — its (seed, connection
// id, arm, scenario, fault schedule) tuple is logged to
// ArmResult::quarantined and the run continues. replay() re-runs a
// quarantined connection deterministically in isolation (the whole sample
// path derives from (seed, id), so the replay is exact).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/prr.h"
#include "obs/episodes.h"
#include "sim/event_queue.h"
#include "obs/metrics_registry.h"
#include "obs/store/capture_policy.h"
#include "obs/store/store_writer.h"
#include "obs/trace_record.h"
#include "sim/time.h"
#include "stats/latency.h"
#include "stats/recovery_log.h"
#include "tcp/invariants.h"
#include "tcp/metrics.h"
#include "tcp/sender.h"
#include "workload/population.h"

namespace prr::exp {

struct ArmConfig {
  std::string name;
  tcp::RecoveryKind recovery = tcp::RecoveryKind::kPrr;
  core::ReductionBound prr_bound = core::ReductionBound::kSlowStart;
  tcp::CcKind cc = tcp::CcKind::kCubic;
  tcp::EarlyRetransmitMode early_retransmit = tcp::EarlyRetransmitMode::kOff;
  bool tail_loss_probe = false;
  bool pacing = false;
  bool ecn = false;  // overrides the sample's client_ecn when true
  uint32_t initial_cwnd_segments = 10;
  uint32_t mss = 1430;
  int max_rto_backoffs = 7;

  // Adversarial-endpoint defenses (SenderConfig pass-throughs). On by
  // default; the torture corpus pins them off to reproduce the classic
  // wedges each defense prevents (reneging wedge, corrupted-ACK
  // meltdown, zero-window deadlock).
  bool renege_recovery = true;
  bool validate_acks = true;
  bool zero_window_probes = true;

  static ArmConfig prr_arm() {
    ArmConfig a;
    a.name = "PRR";
    a.recovery = tcp::RecoveryKind::kPrr;
    return a;
  }
  static ArmConfig rfc3517_arm() {
    ArmConfig a;
    a.name = "RFC 3517";
    a.recovery = tcp::RecoveryKind::kRfc3517;
    return a;
  }
  static ArmConfig linux_arm() {
    ArmConfig a;
    a.name = "Linux";
    a.recovery = tcp::RecoveryKind::kLinuxRateHalving;
    return a;
  }
};

// Everything needed to reproduce one misbehaving connection in isolation:
// the full sample path (network, workload, faults) derives from
// (seed, connection_id), and the arm is identified by name.
struct QuarantineRecord {
  uint64_t seed = 0;
  uint64_t connection_id = 0;
  std::string arm_name;
  std::string scenario;       // RunOptions::scenario at the time of the run
  std::string fault_summary;  // FaultSchedule::describe() of the sample
  // Trace geometry of the run that produced this record. replay() pins
  // these (when nonzero) so a replayed connection re-runs under the
  // exact recorder configuration — the captured tail is byte-identical.
  uint32_t trace_ring_records = 0;
  uint32_t trace_tail_records = 0;
  std::vector<tcp::InvariantViolation> violations;
  std::string exception;  // non-empty if the connection threw
  // Tail of the connection's flight recorder at the moment of failure
  // (newest RunOptions::trace_tail_records records, oldest first).
  std::vector<obs::TraceRecord> trace_tail;
  // Recovery episodes reconstructed from the trace tail (ledgers kept):
  // the last one is the culprit — the episode in flight, or closest to,
  // the moment of failure.
  std::vector<obs::RecoveryEpisode> episodes;

  std::string summary() const;
  // The trace tail as Chrome trace-event JSON (ui.perfetto.dev).
  std::string trace_json() const;
  // Human-readable dump of the culprit episode (the last reconstructed
  // one, per-ACK ledger included); empty string when none was captured.
  std::string episode_summary() const;
};

// Per-connection terminal state, collected with
// RunOptions::collect_outcomes: the input to the torture engine's
// cross-arm differential oracle (every arm must deliver the identical
// byte stream or abort cleanly).
struct ConnOutcome {
  uint64_t id = 0;
  uint64_t expected_bytes = 0;   // sum of drawn response sizes
  uint64_t delivered_bytes = 0;  // receiver's rcv_nxt at teardown
  bool all_acked = false;
  bool aborted = false;
  // The application wrote every response (all_acked alone also holds
  // mid-gap between responses, where delivered < expected is normal).
  bool app_finished = false;
};

struct ArmResult {
  std::string name;
  // Sum of the connections' sender ledgers (tcp::Sender::metrics), each
  // folded once when its connection ends.
  tcp::Metrics metrics;
  stats::RecoveryLog recovery_log;
  // Structured recovery episodes derived from each connection's trace
  // stream (populated only with RunOptions::collect_episodes).
  // Reconciles bit-exactly with `recovery_log` and `metrics`
  // (EpisodeSweepTest, StoreLive.EpisodesFromStoreReconcile).
  obs::EpisodeTable episodes;
  stats::LatencyTracker latency;
  sim::Time total_network_transmit_time;
  sim::Time total_loss_recovery_time;
  uint64_t connections_run = 0;
  // Sum of all drawn response sizes: identical across arms by the
  // common-random-numbers construction (checked in tests).
  uint64_t total_workload_bytes = 0;

  // Chaos-harness safety net (graceful degradation): connections that
  // tripped an invariant or threw, with enough context to replay each.
  std::vector<QuarantineRecord> quarantined;
  uint64_t invariant_violations = 0;  // total across the arm
  uint64_t acks_checked = 0;          // ACKs the checker examined

  // Per-connection terminal states in ascending id order (only with
  // RunOptions::collect_outcomes).
  std::vector<ConnOutcome> outcomes;

  // Trace-store blocks buffered by a worker shard between the capture
  // decision and the stream fold (only with RunOptions::store_path). The
  // fold callback flushes this to the arm's StoreWriter in connection-id
  // order and clears it, so the file is byte-identical to a serial run;
  // in the serial path it is flushed after every connection, keeping RSS
  // flat at any sweep size.
  obs::StoreShard store;

  // Final accounting of the arm's finished store file (only with
  // RunOptions::store_path; filled by run_arm after the writer closes).
  // Callers wanting a post-run summary should read these instead of
  // reopening the file — StoreReader loads the whole store, which would
  // undo the flat-RSS write path on a large sweep.
  uint64_t store_connections = 0;
  uint64_t store_records = 0;
  uint64_t store_payload_bytes = 0;

  // Named-instrument view of the arm (DESIGN.md §8): per-connection
  // instruments under "tcp." and "exp.", recorder accounting under
  // "obs.trace." (only when tracing ran), wall-clock profiles under
  // "profile." (only with RunOptions::self_profile). The "tcp." and
  // "exp." sections are deterministic — identical at any thread count
  // and with tracing on or off. Arm totals are read from `metrics` and
  // `connections_run`; no registry counter copies them.
  obs::MetricsRegistry registry;

  // Folds a shard covering a higher connection-id range into this one.
  // The parallel harness merges shards in ascending connection-id order,
  // so every aggregate (counter sums, event/response/quarantine
  // sequences) is byte-identical to the serial run at any thread count.
  void merge(ArmResult&& shard);

  double retransmission_rate() const {
    return metrics.data_segments_sent == 0
               ? 0
               : static_cast<double>(metrics.retransmits_total) /
                     static_cast<double>(metrics.data_segments_sent);
  }
  double fraction_time_in_loss_recovery() const {
    return total_network_transmit_time.is_zero()
               ? 0
               : total_loss_recovery_time / total_network_transmit_time;
  }
  double fraction_bytes_in_fast_recovery() const;
  double fraction_fast_retransmits_lost() const {
    return metrics.fast_retransmits == 0
               ? 0
               : static_cast<double>(metrics.lost_fast_retransmits) /
                     static_cast<double>(metrics.fast_retransmits);
  }
};

struct RunOptions {
  int connections = 2000;
  // First connection id: the run covers ids [first_connection,
  // first_connection + connections). Every connection's sample path
  // derives from (seed, id) alone, so running a population as disjoint
  // id-ranges — in one process or across several (the fork-per-shard
  // bench mode) — and summing the per-range aggregates in ascending-id
  // order reproduces the single-run aggregates exactly.
  uint64_t first_connection = 0;
  uint64_t seed = 42;
  // Wall-clock cap per connection (simulated time).
  sim::Time per_connection_limit = sim::Time::seconds(600);

  // Worker threads for the sweep. 1 = serial (the default), 0 = hardware
  // concurrency, N = exactly N workers. Results are byte-identical at any
  // value: each connection's sample path derives only from (seed, id), so
  // workers share nothing, and shard accumulators are merged back in
  // connection-id order.
  int threads = 1;

  // --- million-connection sweeps ---
  // Keep only counters and log2 histograms in the latency/recovery
  // aggregates, discarding the per-response and per-event sample
  // vectors: memory per arm becomes O(1) instead of O(connections).
  // Every fraction_* statistic and count() is maintained identically in
  // both modes; exact-sample quantiles degrade to histogram
  // approximations (stats::LatencyTracker/RecoveryLog docs). Off by
  // default so existing consumers of the raw vectors are unaffected.
  bool bounded_stats = false;
  // Recycle one Simulator/Connection/ServerApp arena per worker across
  // connections (the reset() protocol) instead of constructing fresh
  // objects per connection. Behavior-identical — "fresh == reset by
  // construction", enforced by digest tests — and roughly halves serial
  // sweep cost; on by default.
  bool pool_connections = true;

  // --- serial hot path (DESIGN.md §12) ---
  // ACK-train batch delivery + coalesced timer rearms: links deliver
  // contiguous runs of propagating segments per queue event (the clock
  // still advances to each segment's own timestamp before its hook) and
  // per-ACK timer rearms defer their queue push under a pre-drawn FIFO
  // seq. Observation-equivalent to per-event mode by construction; on by
  // default because it is the serial-throughput win.
  bool batch_delivery = true;

  // Attach a tcp::InvariantChecker to every connection and quarantine
  // the ones that trip it. Off by default: the stationary experiment hot
  // path pays nothing for the safety net.
  bool check_invariants = false;
  // Label recorded into QuarantineRecords (e.g. the chaos scenario name).
  std::string scenario;
  // Synthetic-violation injection for testing the quarantine machinery:
  // connection `inject_violation_connection` records one artificial
  // violation on its `inject_violation_on_ack`-th ACK (-1 = never).
  int64_t inject_violation_connection = -1;
  uint64_t inject_violation_on_ack = 1;

  // Attach a flight recorder to every connection. Checked and
  // replayed connections get a recorder regardless, so quarantine
  // artifacts always carry their event tail. Tracing never changes the
  // simulation: aggregates stay byte-identical with it on or off.
  bool trace = false;
  uint32_t trace_ring_records = 2048;  // ring capacity per connection
  uint32_t trace_tail_records = 256;   // tail kept on quarantine/replay
  // Fold every connection's trace stream into ArmResult::episodes (a
  // recorder is attached regardless of `trace`, so the table is
  // identical with tracing on or off). Episodes are built from a
  // listener on the recorder, so ring wrap cannot cost episodes on long
  // connections.
  bool collect_episodes = false;
  // --- trace store (DESIGN.md §14) ---
  // When non-empty, persist selected connections' trace rings to a
  // columnar store file at obs::store_path_for_arm(store_path, arm.name)
  // ("out.prrstore" + arm "RFC 3517" → "out.rfc_3517.prrstore"). A
  // recorder is attached to every connection (like `trace`); at teardown
  // the capture policy below decides whether the ring is encoded and
  // appended. Store bytes are a pure function of (population, arm, seed,
  // policy): byte-identical at any thread count (StoreDeterminism.*).
  std::string store_path;
  // CapturePolicy spec (grammar in obs/store/capture_policy.h), e.g.
  // "all", "sample=64,full=timeout". Parsed by run_arm; a malformed spec
  // throws std::invalid_argument before any connection runs.
  std::string capture = "all";

  // Wall-clock self-profiling (event-slice and per-ACK cost histograms)
  // into ArmResult::registry under "profile.". Nondeterministic by
  // nature; off by default so the registry stays reproducible.
  bool self_profile = false;

  // --- torture engine (torture/) ---
  // Arm the progress/conservation/termination oracles on every checked
  // connection (requires check_invariants to have any effect; oracle
  // findings join the same quarantine pipeline as invariant violations).
  bool torture_oracles = false;
  // No-forward-progress watchdog: flag a connection whose snd_una has
  // not moved across this many consecutive RTO firings while the path
  // was up the whole time (a true blackhole legitimately stalls; a
  // healthy path must not).
  int watchdog_rto_backoffs = 4;
  // Record every connection's terminal state into ArmResult::outcomes
  // for the cross-arm differential oracle.
  bool collect_outcomes = false;
};

// Outcome of re-running a single quarantined connection in isolation.
struct ReplayResult {
  std::vector<tcp::InvariantViolation> violations;
  std::string exception;
  bool aborted = false;
  bool all_acked = false;
  uint64_t acks_checked = 0;
  // Recorder tail from the replayed connection (always captured on a
  // failing replay).
  std::vector<obs::TraceRecord> trace_tail;

  // The replay saw the same failure class the original run recorded.
  bool reproduced(const QuarantineRecord& rec) const;
};

// One connection's full forensic capture: the (ring-capped) record
// stream plus its episodes with per-ACK ledgers. The input to
// prr_query's live single-connection views and the cross-arm diff
// (obs/trace_diff.h) — run the same id under two arms and compare.
struct TracedConnection {
  std::vector<obs::TraceRecord> records;
  std::vector<obs::RecoveryEpisode> episodes;
  bool aborted = false;
  bool all_acked = false;
};

// Re-runs connection `id` of the (pop, arm, opts) experiment in
// isolation with a recorder attached, capturing every record through a
// listener (so the stream is complete even past the ring capacity, up
// to `max_records`; 0 = unbounded). Deterministic: the sample path
// derives from (opts.seed, id) only.
TracedConnection trace_connection(const workload::Population& pop,
                                  const ArmConfig& arm,
                                  const RunOptions& opts, uint64_t id,
                                  std::size_t max_records = 1u << 20);

// Re-runs one quarantined connection deterministically under `opts` (the
// sweep's options), with invariant checking forced on and the record's
// seed and trace geometry pinned. `arm` must be the configuration of the
// arm named in the record.
ReplayResult replay(const workload::Population& pop, const ArmConfig& arm,
                    const RunOptions& opts, const QuarantineRecord& record);

// Runs one arm over the population.
ArmResult run_arm(const workload::Population& pop, const ArmConfig& arm,
                  const RunOptions& opts);

// Runs several arms over the identical sample paths.
std::vector<ArmResult> run_arms(const workload::Population& pop,
                                const std::vector<ArmConfig>& arms,
                                const RunOptions& opts);

}  // namespace prr::exp
