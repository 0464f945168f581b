// query_gate: CI reconciliation check for the trace store + prr_query
// analytics layer (DESIGN.md §14). The store is *derived* state — every
// connection's flight-recorder ring, persisted columnar — so everything
// mined from it must agree bit-exactly with the in-process ground truth:
//
//   1. the store file is byte-identical at threads 1/4/8 and with the
//      diagnostic ring (RunOptions::trace) on or off — capture must not
//      depend on scheduling or on other observability being enabled;
//   2. two half-range runs merged with merge_store_files() reproduce the
//      full run's file byte for byte (the fork-per-shard contract);
//   3. episodes_from_store() rebuilds an EpisodeTable whose JSON equals
//      the live table's, whose finished rows are the senders'
//      stats::RecoveryLog events in order, and whose stream counters
//      equal the tcp::Metrics aggregate;
//   4. raw-record aggregates reconcile with registry counters: one
//      kEnterRecovery record per fast-recovery event, one kRtoFired per
//      timeout, one kTransmit per data segment sent;
//   5. a triggered policy ("sample=8,full=timeout") keeps exactly the
//      connections the policy predicts from per-connection metrics, and
//      each kept connection's records are identical to the capture=all
//      store's — sampling selects, never mutates;
//   6. critical-path buckets sum exactly to summed episode duration for
//      every stored connection.
//
// Runs under chaos (ChaosSpec::everything) so the records exercise RTO
// interruptions, undo and aborts. Exits non-zero on the first mismatch.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "exp/experiment.h"
#include "exp/scenarios.h"
#include "obs/episodes.h"
#include "obs/flight_recorder.h"
#include "obs/query.h"
#include "obs/store/capture_policy.h"
#include "obs/store/store_reader.h"
#include "obs/store/store_writer.h"
#include "util/artifacts.h"
#include "workload/web_workload.h"

using namespace prr;

namespace {

int g_failures = 0;

#define GATE_CHECK(cond, ...)                         \
  do {                                                \
    if (!(cond)) {                                    \
      std::printf("FAIL: " __VA_ARGS__);              \
      std::printf("  [%s]\n", #cond);                 \
      ++g_failures;                                   \
    }                                                 \
  } while (0)

constexpr int kConnections = 2000;
constexpr uint64_t kSeed = 20110501;

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

exp::RunOptions base_opts() {
  exp::RunOptions opts;
  opts.connections = kConnections;
  opts.seed = kSeed;
  opts.check_invariants = true;  // chaos runs quarantine, never crash
  opts.scenario = "query_gate/chaos";
  // Reconciliation is only exact when no ring wraps: a wrapped ring
  // stores a (flagged) suffix of the stream, while the registry and the
  // listener-fed live episode table see everything. Size the ring so no
  // chaos connection wraps; section 3 asserts zero truncated blocks.
  opts.trace_ring_records = 1 << 16;
  return opts;
}

// Runs the PRR arm writing a store; returns the store file path.
std::string run_with_store(const workload::Population& pop,
                           exp::RunOptions opts, const std::string& name,
                           exp::ArmResult* result_out = nullptr) {
  opts.store_path = util::artifact_path(name);
  const exp::ArmConfig arm = exp::ArmConfig::prr_arm();
  exp::ArmResult r = exp::run_arm(pop, arm, opts);
  if (result_out != nullptr) *result_out = std::move(r);
  return obs::store_path_for_arm(opts.store_path, arm.name);
}

uint64_t counter_value(const exp::ArmResult& r, const char* name) {
  const auto* c = r.registry.find_counter(name);
  return c == nullptr ? 0 : c->value();
}

uint64_t agg_count(const obs::StoreReader& reader, obs::TraceType type) {
  obs::AggregateQuery q;
  q.filter.set_only_type(type);
  obs::AggregateResult res;
  std::string err;
  if (!obs::run_aggregate(reader, q, &res, &err)) {
    std::printf("FAIL: aggregate over %s: %s\n", obs::to_string(type),
                err.c_str());
    ++g_failures;
    return 0;
  }
  return res.rows.empty() ? 0 : res.rows[0].count;
}

}  // namespace

int main() {
  workload::WebWorkload base;
  exp::ChaosSpec spec = exp::ChaosSpec::everything();
  exp::ChaosPopulation pop(base, spec.profile);

  // --- 1. byte-identical store: threads 1/4/8 x ring trace on/off -----
  exp::RunOptions ref_opts = base_opts();
  ref_opts.capture = "all";
  ref_opts.threads = 1;
  exp::ArmResult live;
  live.name = "PRR";
  const std::string ref_path =
      run_with_store(pop, ref_opts, "qgate_ref.prrstore", &live);
  const std::string ref_bytes = slurp(ref_path);
  GATE_CHECK(!ref_bytes.empty(), "reference store is empty/unreadable\n");

  for (const bool trace : {false, true}) {
    for (const int threads : {1, 4, 8}) {
      if (!trace && threads == 1) continue;  // that IS the reference
      exp::RunOptions opts = ref_opts;
      opts.threads = threads;
      opts.trace = trace;
      opts.collect_episodes = trace;
      char name[64];
      std::snprintf(name, sizeof(name), "qgate_t%d_tr%d.prrstore", threads,
                    trace ? 1 : 0);
      const std::string path = run_with_store(pop, opts, name);
      const std::string bytes = slurp(path);
      GATE_CHECK(bytes == ref_bytes,
                 "store differs at threads=%d trace=%d (%zu vs %zu B)\n",
                 threads, trace ? 1 : 0, bytes.size(), ref_bytes.size());
      std::remove(path.c_str());
      std::printf("ok: store byte-identical threads=%d trace=%d (%zu B)\n",
                  threads, trace ? 1 : 0, bytes.size());
    }
  }

  // --- 2. split runs + merge == full run ------------------------------
  {
    exp::RunOptions lo = ref_opts;
    lo.connections = kConnections / 2;
    const std::string lo_path =
        run_with_store(pop, lo, "qgate_lo.prrstore");
    exp::RunOptions hi = ref_opts;
    hi.first_connection = kConnections / 2;
    hi.connections = kConnections - kConnections / 2;
    const std::string hi_path =
        run_with_store(pop, hi, "qgate_hi.prrstore");
    const std::string merged_path =
        util::artifact_path("qgate_merged.prrstore");
    std::string err;
    GATE_CHECK(obs::merge_store_files({lo_path, hi_path}, merged_path,
                                      &err),
               "merge failed: %s\n", err.c_str());
    GATE_CHECK(slurp(merged_path) == ref_bytes,
               "merged halves differ from the full run's store\n");
    std::printf("ok: split [0,%d)+[%d,%d) merge == full file\n",
                kConnections / 2, kConnections / 2, kConnections);
    std::remove(lo_path.c_str());
    std::remove(hi_path.c_str());
    std::remove(merged_path.c_str());
  }

  obs::StoreReader reader;
  {
    std::string err;
    GATE_CHECK(obs::StoreReader::open(ref_path, &reader, &err),
               "reopen reference store: %s\n", err.c_str());
  }

  // --- 3. episodes_from_store == live episode table -------------------
  {
    uint64_t truncated = 0;
    for (const auto& b : reader.blocks()) {
      if (b.flags & obs::kBlockTruncated) ++truncated;
    }
    GATE_CHECK(truncated == 0,
               "%llu ring-truncated block(s): raise trace_ring_records "
               "so reconciliation is exact\n",
               (unsigned long long)truncated);
    exp::RunOptions live_opts = ref_opts;
    live_opts.collect_episodes = true;
    live_opts.store_path.clear();
    const exp::ArmResult traced =
        exp::run_arm(pop, exp::ArmConfig::prr_arm(), live_opts);

    obs::EpisodeTable from_store;
    std::string err;
    GATE_CHECK(obs::episodes_from_store(reader, obs::QueryFilter{},
                                        &from_store, &err),
               "episodes_from_store: %s\n", err.c_str());
    GATE_CHECK(from_store.to_json() == traced.episodes.to_json(),
               "store-derived episode JSON != live episode JSON\n");

    const auto& s = from_store.stream();
    const auto& m = traced.metrics;
    GATE_CHECK(s.data_segments_sent == m.data_segments_sent,
               "data_segments_sent\n");
    GATE_CHECK(s.retransmits_total == m.retransmits_total,
               "retransmits_total\n");
    GATE_CHECK(s.fast_retransmits == m.fast_retransmits,
               "fast_retransmits\n");
    GATE_CHECK(s.dsacks_received == m.dsacks_received,
               "dsacks_received\n");
    GATE_CHECK(s.undo_events == m.undo_events, "undo_events\n");
    GATE_CHECK(s.lost_retransmits_detected == m.lost_retransmits_detected,
               "lost_retransmits_detected\n");
    GATE_CHECK(s.lost_fast_retransmits == m.lost_fast_retransmits,
               "lost_fast_retransmits\n");
    GATE_CHECK(s.timeouts_total == m.timeouts_total, "timeouts_total\n");
    GATE_CHECK(from_store.total() == m.fast_recovery_events,
               "episode total %zu vs fast_recovery_events %llu\n",
               from_store.total(),
               (unsigned long long)m.fast_recovery_events);
    // Every closed episode (completed, undone or RTO-interrupted) is the
    // sender's RecoveryLog entry, field for field and in order.
    GATE_CHECK(from_store.finished() == traced.recovery_log.count(),
               "finished %zu vs recovery-log count %zu\n",
               from_store.finished(), traced.recovery_log.count());
    GATE_CHECK(from_store.finished_log().events() ==
                   traced.recovery_log.events(),
               "finished episodes differ from the recovery-log events\n");
    std::printf("ok: store episodes == live (total %zu, json %zu B)\n",
                from_store.total(), from_store.to_json().size());
  }

  // --- 4. raw-record aggregates == registry counters -------------------
  {
    GATE_CHECK(agg_count(reader, obs::TraceType::kEnterRecovery) ==
                   counter_value(live, "tcp.fast_recovery_events"),
               "count(enter_recovery) != tcp.fast_recovery_events\n");
    GATE_CHECK(agg_count(reader, obs::TraceType::kRtoFired) ==
                   counter_value(live, "tcp.timeouts_total"),
               "count(rto_fired) != tcp.timeouts_total\n");
    GATE_CHECK(agg_count(reader, obs::TraceType::kTransmit) ==
                   counter_value(live, "tcp.data_segments_sent"),
               "count(transmit) != tcp.data_segments_sent\n");
    std::printf("ok: aggregates reconcile with registry "
                "(enter_recovery %llu, rto %llu, transmit %llu)\n",
                (unsigned long long)agg_count(
                    reader, obs::TraceType::kEnterRecovery),
                (unsigned long long)agg_count(reader,
                                              obs::TraceType::kRtoFired),
                (unsigned long long)agg_count(reader,
                                              obs::TraceType::kTransmit));
  }

  // --- 5. triggered policy selects, never mutates ----------------------
  {
    exp::RunOptions samp_opts = ref_opts;
    samp_opts.capture = "sample=8,full=timeout";
    const std::string samp_path =
        run_with_store(pop, samp_opts, "qgate_samp.prrstore");
    obs::StoreReader samp;
    std::string err;
    GATE_CHECK(obs::StoreReader::open(samp_path, &samp, &err),
               "open sampled store: %s\n", err.c_str());
    GATE_CHECK(samp.connections().size() < reader.connections().size(),
               "sampled store kept every connection\n");
    uint64_t checked = 0;
    for (uint64_t conn : samp.connections()) {
      std::vector<obs::TraceRecord> a, b;
      GATE_CHECK(samp.read_connection(conn, &a) &&
                     reader.read_connection(conn, &b),
                 "decode conn %llu\n", (unsigned long long)conn);
      GATE_CHECK(a.size() == b.size(),
                 "conn %llu: %zu sampled records vs %zu full\n",
                 (unsigned long long)conn, a.size(), b.size());
      for (std::size_t i = 0; i < a.size() && i < b.size(); ++i) {
        if (!(a[i].at_ns == b[i].at_ns && a[i].type == b[i].type &&
              a[i].a == b[i].a && a[i].b == b[i].b)) {
          GATE_CHECK(false, "conn %llu record %zu differs\n",
                     (unsigned long long)conn, i);
          break;
        }
      }
      ++checked;
    }
    // Every 1-in-8 sampled id must be present (triggers only ADD blocks).
    for (uint64_t id = 0; id < kConnections; ++id) {
      if (obs::capture_sampled(id, 8)) {
        std::vector<obs::TraceRecord> recs;
        GATE_CHECK(samp.read_connection(id, &recs) && !recs.empty(),
                   "sampled conn %llu missing from store\n",
                   (unsigned long long)id);
      }
    }
    std::printf("ok: sampled store (%zu conns, %llu cross-checked) is a "
                "pure subset of capture=all\n",
                samp.connections().size(), (unsigned long long)checked);
    std::remove(samp_path.c_str());
  }

  // --- 6. critical-path buckets partition episode time -----------------
  {
    uint64_t episodes = 0;
    for (uint64_t conn : reader.connections()) {
      obs::CriticalPathReport rep;
      std::string err;
      GATE_CHECK(obs::critical_path(reader, conn, &rep, &err),
                 "critical_path(%llu): %s\n", (unsigned long long)conn,
                 err.c_str());
      const int64_t sum = rep.waiting_for_ack_ns + rep.rto_wait_ns +
                          rep.app_limited_ns + rep.send_window_ns;
      GATE_CHECK(sum == rep.total_ns,
                 "conn %llu: buckets sum %lld != total %lld\n",
                 (unsigned long long)conn, (long long)sum,
                 (long long)rep.total_ns);
      episodes += rep.episodes;
    }
    GATE_CHECK(episodes == live.metrics.fast_recovery_events,
               "critpath episodes %llu != fast_recovery_events %llu\n",
               (unsigned long long)episodes,
               (unsigned long long)live.metrics.fast_recovery_events);
    std::printf("ok: critical-path buckets partition %llu episodes "
                "exactly\n",
                (unsigned long long)episodes);
  }

  std::remove(ref_path.c_str());
  if (g_failures > 0) {
    std::printf("query_gate: %d check(s) FAILED\n", g_failures);
    return 1;
  }
  std::printf("query_gate: all reconciliations passed (chaos sweep, "
              "threads 1/4/8, trace on/off, sampled + merged stores)\n");
  return 0;
}
