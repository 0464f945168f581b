#include "exp/experiment.h"

#include <algorithm>
#include <cstdio>
#include <exception>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "exp/conn_arena.h"
#include "exp/stream_fold.h"
#include "net/fault_injector.h"
#include "net/loss_model.h"
#include "net/reorder_model.h"
#include "obs/flight_recorder.h"
#include "obs/perfetto.h"
#include "obs/self_profile.h"
#include "sim/simulator.h"
#include "tcp/connection.h"
#include "torture/oracles.h"

namespace prr::exp {

void ArmResult::merge(ArmResult&& shard) {
  metrics.merge(shard.metrics);
  recovery_log.merge(shard.recovery_log);
  episodes.merge(shard.episodes);
  latency.merge(shard.latency);
  total_network_transmit_time += shard.total_network_transmit_time;
  total_loss_recovery_time += shard.total_loss_recovery_time;
  connections_run += shard.connections_run;
  total_workload_bytes += shard.total_workload_bytes;
  quarantined.insert(quarantined.end(),
                     std::make_move_iterator(shard.quarantined.begin()),
                     std::make_move_iterator(shard.quarantined.end()));
  outcomes.insert(outcomes.end(),
                  std::make_move_iterator(shard.outcomes.begin()),
                  std::make_move_iterator(shard.outcomes.end()));
  invariant_violations += shard.invariant_violations;
  acks_checked += shard.acks_checked;
  registry.merge(shard.registry);
  store.merge(std::move(shard.store));
  // Zero for in-run worker shards (only run_arm's writer fills them);
  // summing makes fork-per-shard process merges total correctly.
  store_connections += shard.store_connections;
  store_records += shard.store_records;
  store_payload_bytes += shard.store_payload_bytes;
}

double ArmResult::fraction_bytes_in_fast_recovery() const {
  return metrics.bytes_sent == 0
             ? 0
             : static_cast<double>(recovery_log.bytes_sent_during()) /
                   static_cast<double>(metrics.bytes_sent);
}

std::string QuarantineRecord::summary() const {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "conn %llu arm '%s' seed %llu%s%s: %zu violation(s)%s%s",
                static_cast<unsigned long long>(connection_id),
                arm_name.c_str(), static_cast<unsigned long long>(seed),
                scenario.empty() ? "" : " scenario ",
                scenario.empty() ? "" : scenario.c_str(),
                violations.size(), exception.empty() ? "" : ", exception: ",
                exception.empty() ? "" : exception.c_str());
  std::string out = buf;
  for (const auto& v : violations) {
    out += "\n    [";
    out += tcp::to_string(v.kind);
    out += " @ " + std::to_string(v.at.ms()) + "ms] " + v.detail;
  }
  if (fault_summary != "(none)" && !fault_summary.empty()) {
    out += "\n    faults: " + fault_summary;
  }
  return out;
}

std::string QuarantineRecord::trace_json() const {
  return obs::perfetto_trace_json(trace_tail);
}

std::string QuarantineRecord::episode_summary() const {
  if (episodes.empty()) return {};
  return obs::describe(episodes.back());
}

bool ReplayResult::reproduced(const QuarantineRecord& rec) const {
  if (!rec.exception.empty()) return exception == rec.exception;
  if (violations.size() != rec.violations.size()) return false;
  for (std::size_t i = 0; i < violations.size(); ++i) {
    if (violations[i].kind != rec.violations[i].kind) return false;
    if (violations[i].at != rec.violations[i].at) return false;
  }
  return !violations.empty();
}

namespace {

tcp::ConnectionConfig make_connection_config(
    const workload::ConnectionSample& s, const ArmConfig& arm) {
  tcp::ConnectionConfig cc;
  cc.sender.mss = arm.mss;
  cc.sender.initial_cwnd_segments = arm.initial_cwnd_segments;
  cc.sender.cc = arm.cc;
  cc.sender.recovery = arm.recovery;
  cc.sender.prr_bound = arm.prr_bound;
  cc.sender.early_retransmit = arm.early_retransmit;
  cc.sender.tail_loss_probe = arm.tail_loss_probe;
  cc.sender.pacing = arm.pacing;
  cc.sender.max_rto_backoffs = arm.max_rto_backoffs;
  cc.sender.renege_recovery = arm.renege_recovery;
  cc.sender.validate_acks = arm.validate_acks;
  cc.sender.zero_window_probes = arm.zero_window_probes;
  cc.sender.handshake_rtt = s.rtt;  // measured during the SYN exchange

  cc.sender.sack_enabled = s.client_sack;
  cc.sender.timestamps = s.client_timestamps;
  const bool ecn = arm.ecn || s.client_ecn;
  cc.sender.ecn = ecn;
  cc.receiver.sack_enabled = s.client_sack;
  cc.receiver.dsack_enabled = s.client_dsack;
  cc.receiver.timestamps = s.client_timestamps;
  cc.receiver.ecn = ecn;

  cc.path = net::Path::Config::symmetric(s.bandwidth, s.rtt,
                                         s.queue_packets);
  cc.path.data_link.ecn_mark_threshold = s.ecn_mark_threshold;
  cc.path.ack_mangler.ack_loss_probability = s.ack_loss_prob;
  cc.path.ack_mangler.stretch_factor = s.ack_stretch;
  cc.path.ack_mangler.stretch_flush_timeout = s.ack_stretch_flush;
  cc.path.ack_mangler.misbehavior = s.misbehavior;
  cc.receiver.renege_at = s.renege_at;
  return cc;
}

struct ConnectionOutcome {
  std::vector<tcp::InvariantViolation> violations;
  std::string fault_summary;
  uint64_t acks_checked = 0;
  bool aborted = false;
  bool all_acked = false;
  std::string exception;  // non-empty if the connection threw
  std::vector<obs::TraceRecord> trace_tail;  // captured only on failure
};

// Folds one finished connection's distributions into the arm's
// named-instrument view, through pre-bound handles (RegistryHandles) so
// the sweep hot path pays pointer dereferences instead of string-keyed
// map lookups per connection. Every input is a deterministic function of
// (seed, id, arm), and the registry merge is commutative per name, so the
// histograms are byte-identical at any thread count. The completion tally
// stays lazily created so the registry's instrument set is exactly what
// the uncached path produced.
void fold_connection_registry(RegistryHandles& h, const tcp::Sender& sender,
                              sim::Time ran_for) {
  const tcp::Metrics& m = sender.metrics();
  if (sender.all_acked()) {
    if (!h.connections_completed) {
      h.connections_completed = h.owner->counter("exp.connections_completed");
    }
    h.connections_completed->inc();
  }
  h.retransmits_per_conn->record(m.retransmits_total);
  h.timeouts_per_conn->record(m.timeouts_total);
  h.final_cwnd_bytes->record(sender.cwnd_bytes());
  h.conn_sim_time_ns->record(static_cast<uint64_t>(ran_for.ns()));
  if (ran_for.ns() > h.max_conn_sim_time_ns->value()) {
    h.max_conn_sim_time_ns->set(ran_for.ns());
  }
}

// The registry counters that shadow ArmResult totals, written once per
// arm from the folded ledgers. Like the per-connection instruments, they
// exist only once they have something to count: the totals once any
// connection finished, the abort tally once one aborted.
void write_registry_totals(ArmResult& r) {
  if (r.connections_run == 0) return;
  obs::MetricsRegistry& reg = r.registry;
  const tcp::Metrics& m = r.metrics;
  reg.counter("tcp.data_segments_sent")->add(m.data_segments_sent);
  reg.counter("tcp.bytes_sent")->add(m.bytes_sent);
  reg.counter("tcp.retransmits_total")->add(m.retransmits_total);
  reg.counter("tcp.fast_retransmits")->add(m.fast_retransmits);
  reg.counter("tcp.timeouts_total")->add(m.timeouts_total);
  reg.counter("tcp.fast_recovery_events")->add(m.fast_recovery_events);
  reg.counter("tcp.undo_events")->add(m.undo_events);
  reg.counter("tcp.dsacks_received")->add(m.dsacks_received);
  reg.counter("exp.connections_run")->add(r.connections_run);
  if (m.connections_aborted > 0) {
    reg.counter("exp.connections_aborted")->add(m.connections_aborted);
  }
}

// Runs connection `id` of the (pop, arm, opts) experiment — the one place
// the sweep, trace_connection and quarantine replay all go through, so a
// replay is the exact computation the original run performed. The
// simulator, connection and app live in `arena`: constructed on its first
// connection, recycled through the reset() protocol after that ("fresh ==
// reset by construction"). Every aggregate folds into `result`; one-off
// callers pass a scratch one. `recorder` is non-null exactly when the run
// traces (opts.trace, invariant checking, episode collection or capture);
// it is cleared first. Exceptions are caught here (not in the caller) so
// the flight-recorder tail can be captured after the stack unwinds.
//
// `capture`/`encoder` (both set or both null) enable trace-store capture:
// at teardown the policy is evaluated over this connection's own counters
// and, on keep, the ring is encoded into result.store.
ConnectionOutcome run_one_connection(const workload::Population& pop,
                                     const ArmConfig& arm,
                                     const RunOptions& opts, uint64_t id,
                                     ConnArena& arena, ArmResult& result,
                                     obs::FlightRecorder* recorder,
                                     const obs::CapturePolicy* capture,
                                     obs::StoreEncoder* encoder) {
  ConnectionOutcome outcome;
  const bool capturing = capture != nullptr && encoder != nullptr;
  // The recorder outlives the connection (the caller owns it) so a
  // throwing connection still leaves a readable tail.
  if (recorder) recorder->clear();

  // Episode accumulation taps the recorder through a listener (records
  // are folded as written, so ring wrap cannot lose episodes). The
  // builder sits outside the try so a throwing connection still yields
  // its partial (truncated) episode; the listener is popped before
  // returning so a shared per-shard ring never keeps a dangling
  // subscriber across connections.
  obs::EpisodeBuilder episode_builder;
  // Capture-trigger inputs, filled as the run produces them (declared
  // before the try so a throwing connection can still be evaluated —
  // an exploding connection is exactly what triggered capture is for).
  obs::CaptureStats cap;
  cap.conn = id;
  const bool collect = opts.collect_episodes && recorder != nullptr;
  if (collect) {
    recorder->add_listener(
        [&episode_builder](const obs::TraceRecord& r) {
          episode_builder.on_record(r);
        });
  }

  try {
    // Common random numbers: the sample and all network randomness derive
    // from (seed, id), independent of the arm.
    sim::Rng conn_rng = sim::Rng(opts.seed).fork(id);
    workload::ConnectionSample& sample = arena.sample;
    pop.sample_into(conn_rng.fork(100), sample);
    for (const auto& resp : sample.responses) {
      result.total_workload_bytes += resp.bytes;
    }
    outcome.fault_summary = sample.faults.describe();

    sim::Simulator& sim = arena.sim;
    sim.reset();
    // Batch delivery is a per-run toggle, set while the queue is empty
    // (fresh or just reset).
    sim.set_batch_delivery(opts.batch_delivery);

    if (!arena.conn) {
      arena.conn.emplace(sim, make_connection_config(sample, arm),
                         conn_rng.fork(101), &result.recovery_log);
    } else {
      arena.conn->reset(make_connection_config(sample, arm),
                        conn_rng.fork(101), &result.recovery_log);
      arena.check_reset_state();
    }
    tcp::Connection& conn = *arena.conn;
    // The sender's ledger is folded into the arm once, when the
    // connection ends, normally or by throwing: a throwing connection
    // keeps the counts it reached.
    struct LedgerFold {
      const tcp::Sender& sender;
      tcp::Metrics& arm;
      ~LedgerFold() { arm += sender.metrics(); }
    } ledger_fold{conn.sender(), result.metrics};
    // The recorder is detached when the connection ends, normally or by
    // throwing. A pooled Connection outlives the shard's recorder, and a
    // timer still armed at the end would otherwise trace its cancel (on
    // the next reset() or the arena's destruction) into another
    // connection's ring or into a recorder that no longer exists.
    struct RecorderDetach {
      tcp::Connection* conn;
      ~RecorderDetach() {
        if (conn == nullptr) return;
        conn->sender().set_recorder(nullptr, 0);
        conn->path().set_recorder(nullptr, 0);
      }
    } recorder_detach{recorder ? &conn : nullptr};
    if (recorder) {
      conn.sender().set_recorder(recorder, static_cast<uint32_t>(id));
    }

    obs::SelfProfiler profiler;
    if (opts.self_profile) {
      profiler.attach(sim);
      profiler.attach(conn.sender());
    }

    // Network impairments, seeded independently of the arm. The path
    // streams that will draw are seeded in one lockstep group. Clean
    // paths (the common case in pooled sweeps) skip the composite
    // allocation entirely.
    {
      const bool ge_loss =
          sample.loss.p_good_to_bad > 0 || sample.loss.loss_in_good > 0;
      const bool reorder = sample.reorder_prob > 0;
      sim::Rng loss_rng = conn_rng.fork(102);
      sim::Rng reorder_rng = conn_rng.fork(103);
      sim::Rng outage_rng = conn_rng.fork(104);
      sim::Rng::prime(
          {sample.ack_loss_prob > 0 ? &conn.path().ack_mangler().rng()
                                    : nullptr,
           ge_loss ? &loss_rng : nullptr, reorder ? &reorder_rng : nullptr,
           sample.outages ? &outage_rng : nullptr});
      if (ge_loss || sample.outages) {
        auto composite = std::make_unique<net::CompositeLoss>();
        if (ge_loss) {
          composite->add(std::make_unique<net::GilbertElliottLoss>(
              sample.loss, loss_rng));
        }
        if (sample.outages) {
          composite->add(std::make_unique<net::OutageLoss>(
              sim, sample.outage, outage_rng));
        }
        conn.path().data_link().set_loss_model(std::move(composite));
      }
      if (reorder) {
        conn.path().data_link().set_reorder_model(
            std::make_unique<net::RandomReorder>(
                sample.reorder_prob, sample.reorder_min, sample.reorder_max,
                reorder_rng));
      }
    }

    // Time-varying path dynamics (chaos scenarios).
    net::FaultInjector injector(sim, conn.path(), sample.faults);
    if (recorder) {
      injector.set_recorder(recorder, static_cast<uint32_t>(id));
    }
    if (!injector.schedule().empty()) injector.arm();

    // The safety net: per-ACK invariant checking, quarantine on violation.
    std::unique_ptr<tcp::InvariantChecker> checker;
    if (opts.check_invariants) {
      tcp::InvariantChecker::Config ccfg;
      if (opts.inject_violation_connection >= 0 &&
          static_cast<uint64_t>(opts.inject_violation_connection) == id) {
        ccfg.inject_on_ack = opts.inject_violation_on_ack;
      }
      checker = std::make_unique<tcp::InvariantChecker>(sim, conn.sender(),
                                                        ccfg);
    }

    // Torture oracles (torture/oracles.h): the progress watchdog rides the
    // RTO hook during the run; deadlock/conservation are teardown checks.
    // Findings join the checker's violation list, so they quarantine and
    // replay exactly like per-ACK invariant hits.
    std::unique_ptr<torture::ProgressWatchdog> watchdog;
    if (opts.torture_oracles && checker) {
      torture::ProgressWatchdog::Config wcfg;
      wcfg.stuck_backoffs = opts.watchdog_rto_backoffs;
      // "Path up" = an ACK could have come back since the last RTO: the
      // client is alive and neither direction is dark or stalled.
      net::Path& path = conn.path();
      watchdog = std::make_unique<torture::ProgressWatchdog>(
          conn.sender(), *checker, wcfg, [&path] {
            return !path.client_dead() && !path.ack_stalled() &&
                   !path.data_link().blackout() &&
                   !path.ack_link().blackout();
          });
    }

    if (!arena.app) {
      arena.app.emplace(sim, conn, sample.responses, &result.latency);
    } else {
      arena.app->reset(sample.responses, &result.latency);
    }
    http::ServerApp& app = *arena.app;
    if (sample.client_abandons) {
      sim.schedule_in(sample.abandon_after,
                      [&conn] { conn.path().kill_client(); });
    }
    app.start();
    sim.run(opts.per_connection_limit);

    if (checker) {
      if (opts.torture_oracles) {
        torture::check_deadlock(sim, conn.sender(), *checker);
        torture::check_conservation(conn.sender(), *checker);
      }
      checker->finalize();
      outcome.violations = checker->violations();
      outcome.acks_checked = checker->acks_checked();
    }
    outcome.aborted = conn.sender().aborted();
    outcome.all_acked = conn.sender().all_acked();

    if (opts.collect_outcomes) {
      ConnOutcome co;
      co.id = id;
      for (const auto& resp : sample.responses) co.expected_bytes += resp.bytes;
      co.delivered_bytes = conn.receiver().rcv_nxt();
      co.all_acked = outcome.all_acked;
      co.aborted = outcome.aborted;
      co.app_finished = app.finished();
      result.outcomes.push_back(co);
    }

    result.total_network_transmit_time +=
        conn.sender().network_transmit_time();
    result.total_loss_recovery_time += conn.sender().loss_recovery_time();
    ++result.connections_run;

    if (capturing) {
      const tcp::Metrics& m = conn.sender().metrics();
      cap.timeouts = m.timeouts_total;
      cap.undo_events = m.undo_events;
      cap.retransmits = m.retransmits_total;
      cap.rto_interrupted_recovery = m.timeouts_in_recovery > 0;
      cap.recovery_ms =
          static_cast<double>(conn.sender().loss_recovery_time().ms());
      cap.aborted = conn.sender().aborted();
    }
    RegistryHandles& handles = arena.handles;
    if (handles.owner != &result.registry) handles.bind(result.registry);
    fold_connection_registry(handles, conn.sender(), sim.now());
    if (recorder) {
      if (!handles.trace_records_written) {
        handles.trace_records_written =
            result.registry.counter("obs.trace.records_written");
        handles.trace_records_dropped =
            result.registry.counter("obs.trace.records_dropped");
      }
      handles.trace_records_written->add(recorder->total_written());
      handles.trace_records_dropped->add(recorder->dropped());
    }
    if (opts.self_profile) profiler.export_into(result.registry);
  } catch (const std::exception& e) {
    outcome.exception = e.what();
  } catch (...) {
    outcome.exception = "unknown exception";
  }

  if (collect) {
    recorder->pop_listener();
    episode_builder.finish();
    result.episodes.fold(episode_builder);
  }
  if (recorder &&
      (!outcome.violations.empty() || !outcome.exception.empty())) {
    outcome.trace_tail = recorder->tail(opts.trace_tail_records);
  }
  if (capturing && recorder != nullptr) {
    cap.invariant_violations = outcome.violations.size();
    // A thrown connection is interesting by definition: fold it into the
    // abort trigger so "full=abort" policies keep its tail.
    if (!outcome.exception.empty()) cap.aborted = true;
    const obs::CaptureDecision d = capture->evaluate(cap);
    if (d.keep) {
      encoder->encode(*recorder, id,
                      d.full ? obs::kBlockFull : obs::kBlockSampled,
                      &result.store);
    }
  }
  return outcome;
}

// Runs connections [begin, end) of one arm into `result`, with the
// quarantine net around each — the single code path both the serial run
// and every worker chunk execute, so the two are the same computation.
// `arena` is the worker's: kept across connections (and ranges) with
// opts.pool_connections, re-emplaced fresh before each one without.
void run_connection_range(const workload::Population& pop,
                          const ArmConfig& arm, const RunOptions& opts,
                          uint64_t begin, uint64_t end, ArmResult& result,
                          std::optional<ConnArena>& arena,
                          const obs::CapturePolicy* capture,
                          obs::StoreWriter* store_writer) {
  // One ring per shard, cleared between connections — the sweep's trace
  // cost is the record writes, not a per-connection ring allocation.
  std::optional<obs::FlightRecorder> recorder;
  if (opts.trace || opts.check_invariants || opts.collect_episodes ||
      capture != nullptr) {
    recorder.emplace(opts.trace_ring_records);
  }
  // One encoder per range: its scratch is reused across connections, so
  // the capture path allocates nothing once warm.
  std::optional<obs::StoreEncoder> encoder;
  if (capture != nullptr) encoder.emplace();
  // The previous range's shard (and its registry) is gone by now, and its
  // successor may occupy the same address — cached instrument handles
  // must not survive the boundary.
  if (arena) arena->handles.invalidate();
  for (uint64_t id = begin; id < end; ++id) {
    if (!arena || !opts.pool_connections) arena.emplace();
    ConnectionOutcome outcome = run_one_connection(
        pop, arm, opts, id, *arena, result, recorder ? &*recorder : nullptr,
        capture, encoder ? &*encoder : nullptr);
    // Serial mode streams captured blocks straight to disk, connection by
    // connection, so the in-memory shard never grows with the sweep.
    // Worker shards have no writer: their blocks ride in result.store
    // until the stream fold flushes them in connection-id order.
    if (store_writer != nullptr && !result.store.empty()) {
      store_writer->append_shard(result.store);
      result.store.clear();
    }
    result.acks_checked += outcome.acks_checked;
    if (outcome.violations.empty() && outcome.exception.empty()) continue;

    // Quarantine: log enough to replay, keep the run going.
    QuarantineRecord rec;
    rec.seed = opts.seed;
    rec.connection_id = id;
    rec.arm_name = arm.name;
    rec.scenario = opts.scenario;
    rec.trace_ring_records = opts.trace_ring_records;
    rec.trace_tail_records = opts.trace_tail_records;
    rec.fault_summary = outcome.fault_summary;
    rec.violations = outcome.violations;
    rec.exception = std::move(outcome.exception);
    rec.trace_tail = std::move(outcome.trace_tail);
    // Attach the culprit episode(s), rebuilt from the tail with per-ACK
    // ledgers: the decision trail leading into the failure, not just
    // raw records.
    if (!rec.trace_tail.empty()) {
      obs::EpisodeBuilder builder({.keep_ledgers = true});
      for (const obs::TraceRecord& r : rec.trace_tail) builder.on_record(r);
      builder.finish();
      rec.episodes = builder.episodes();
    }
    result.invariant_violations += rec.violations.size();
    result.quarantined.push_back(std::move(rec));
  }
}

int resolve_threads(const RunOptions& opts) {
  int t = opts.threads;
  if (t == 0) {
    t = static_cast<int>(std::thread::hardware_concurrency());
    if (t <= 0) t = 1;  // hardware_concurrency() may be unknowable
  }
  return std::max(1, std::min(t, opts.connections));
}

}  // namespace

TracedConnection trace_connection(const workload::Population& pop,
                                  const ArmConfig& arm,
                                  const RunOptions& opts, uint64_t id,
                                  std::size_t max_records) {
  TracedConnection out;
  // A listener captures the full stream (and feeds the episode builder)
  // as records are written, so the result is not capped by the ring.
  obs::FlightRecorder recorder(opts.trace_ring_records);
  obs::EpisodeBuilder builder({.keep_ledgers = true});
  recorder.add_listener(
      [&out, &builder, max_records](const obs::TraceRecord& r) {
        if (max_records == 0 || out.records.size() < max_records) {
          out.records.push_back(r);
        }
        builder.on_record(r);
      });

  RunOptions traced = opts;
  traced.trace = true;
  traced.collect_episodes = false;  // the local builder handles episodes
  ConnArena arena;
  ArmResult scratch;
  ConnectionOutcome outcome =
      run_one_connection(pop, arm, traced, id, arena, scratch, &recorder,
                         /*capture=*/nullptr, /*encoder=*/nullptr);
  builder.finish();
  out.episodes = builder.episodes();
  out.aborted = outcome.aborted;
  out.all_acked = outcome.all_acked;
  return out;
}

ArmResult run_arm(const workload::Population& pop, const ArmConfig& arm,
                  const RunOptions& opts) {
  ArmResult result;
  result.name = arm.name;
  result.latency.set_bounded(opts.bounded_stats);
  result.recovery_log.set_bounded(opts.bounded_stats);
  const auto n = static_cast<uint64_t>(std::max(opts.connections, 0));
  const uint64_t first = opts.first_connection;
  const int threads = resolve_threads(opts);

  // Trace store: parse the capture policy up front (a malformed spec must
  // fail before any connection runs, not after a million of them) and
  // open the per-arm file. A policy that keeps nothing still produces a
  // valid header-only store — a cheap run manifest.
  obs::CapturePolicy policy;
  std::optional<obs::StoreWriter> writer;
  const obs::CapturePolicy* capture = nullptr;
  if (!opts.store_path.empty()) {
    std::string err;
    if (!obs::CapturePolicy::parse(opts.capture, &policy, &err)) {
      throw std::invalid_argument("bad capture policy: " + err);
    }
    obs::StoreMeta meta;
    meta.seed = opts.seed;
    meta.arm = arm.name;
    meta.policy = policy.spec();
    meta.scenario = opts.scenario;
    writer.emplace();
    const std::string path = obs::store_path_for_arm(opts.store_path, arm.name);
    if (!writer->open(path, meta)) {
      throw std::runtime_error("cannot open trace store " + path);
    }
    if (policy.keeps_anything()) capture = &policy;
  }
  auto finish_store = [&writer, &result] {
    if (!writer) return;
    if (!writer->finish()) {
      throw std::runtime_error("short write finishing trace store " +
                               writer->path());
    }
    result.store_connections = writer->connections();
    result.store_records = writer->records();
    result.store_payload_bytes = writer->payload_bytes();
  };

  if (threads == 1) {
    std::optional<ConnArena> arena;
    run_connection_range(pop, arm, opts, first, first + n, result, arena,
                         capture, writer ? &*writer : nullptr);
    write_registry_totals(result);
    finish_store();
    return result;
  }

  // Contiguous chunks of connection ids, claimed dynamically (connection
  // costs vary wildly, so static block partitioning would load-imbalance).
  // Each chunk accumulates into its own ArmResult shard; the StreamFolder
  // folds shards into `result` in chunk order — ascending connection-id
  // order, the serial aggregation bit for bit — while keeping only a
  // reorder window of 2 * threads shards alive, so sweep memory is
  // O(threads) regardless of n. The ceil in the chunk-size
  // formula guarantees num_chunks <= threads * 8 (the floor form
  // degenerated to chunk_size 1 — one shard per connection — whenever
  // n < threads * 8).
  const uint64_t target_chunks = static_cast<uint64_t>(threads) * 8;
  const uint64_t chunk_size =
      std::max<uint64_t>(1, (n + target_chunks - 1) / target_chunks);
  const uint64_t num_chunks = (n + chunk_size - 1) / chunk_size;
  const uint64_t window = 2 * static_cast<uint64_t>(threads);
  // The fold callback runs shards in ascending connection-id order, so
  // flushing each shard's captured blocks to the writer right there
  // reproduces the serial file byte for byte at any thread count.
  StreamFolder<ArmResult, std::function<void(ArmResult&&)>> folder(
      num_chunks, window, [&result, &writer](ArmResult&& shard) {
        if (writer && !shard.store.empty()) {
          writer->append_shard(shard.store);
          shard.store.clear();
        }
        result.merge(std::move(shard));
      });

  auto worker = [&] {
    std::optional<ConnArena> arena;
    uint64_t c = 0;
    while (folder.claim(c)) {
      ArmResult shard;
      shard.latency.set_bounded(opts.bounded_stats);
      shard.recovery_log.set_bounded(opts.bounded_stats);
      const uint64_t begin = first + c * chunk_size;
      const uint64_t end = std::min(first + n, begin + chunk_size);
      run_connection_range(pop, arm, opts, begin, end, shard, arena,
                           capture, /*store_writer=*/nullptr);
      folder.submit(c, std::move(shard));
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) pool.emplace_back(worker);
  for (auto& th : pool) th.join();
  write_registry_totals(result);
  finish_store();
  return result;
}

std::vector<ArmResult> run_arms(const workload::Population& pop,
                                const std::vector<ArmConfig>& arms,
                                const RunOptions& opts) {
  std::vector<ArmResult> results;
  results.reserve(arms.size());
  for (const auto& arm : arms) results.push_back(run_arm(pop, arm, opts));
  return results;
}

ReplayResult replay(const workload::Population& pop, const ArmConfig& arm,
                    const RunOptions& base, const QuarantineRecord& record) {
  RunOptions opts = base;
  opts.seed = record.seed;  // the record pins the sample path
  opts.check_invariants = true;
  // The record also pins the trace geometry: the ring size never affects
  // connection behavior, but the captured tail must match the original
  // byte for byte for replay artifacts to be comparable.
  if (record.trace_ring_records != 0) {
    opts.trace_ring_records = record.trace_ring_records;
  }
  if (record.trace_tail_records != 0) {
    opts.trace_tail_records = record.trace_tail_records;
  }
  obs::FlightRecorder recorder(opts.trace_ring_records);
  ConnArena arena;
  ArmResult scratch;
  ConnectionOutcome outcome = run_one_connection(
      pop, arm, opts, record.connection_id, arena, scratch, &recorder,
      /*capture=*/nullptr, /*encoder=*/nullptr);
  ReplayResult replay;
  replay.violations = std::move(outcome.violations);
  replay.exception = std::move(outcome.exception);
  replay.aborted = outcome.aborted;
  replay.all_acked = outcome.all_acked;
  replay.acks_checked = outcome.acks_checked;
  replay.trace_tail = std::move(outcome.trace_tail);
  return replay;
}

}  // namespace prr::exp
