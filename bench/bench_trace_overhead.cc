// Tracing overhead at sweep scale: the same fixed web sweep run with the
// flight recorder detached and attached (RunOptions::trace), verifying
// the aggregates are byte-identical both ways and reporting the
// wall-clock delta. Emits machine-readable BENCH_TRACE.json so future
// PRs can track the enabled-tracing tax (acceptance: <= 10% per-ACK).
//
// Two costs are reported SEPARATELY (they are different mechanisms and
// regress independently):
//   * ring-write overhead — the per-event cost of PRR_TRACE landing
//     records in the per-connection ring (micro_overhead_pct);
//   * store overhead — the additional cost of the trace store's capture
//     path under the headline policy "sample=64,full=timeout": policy
//     evaluation per teardown plus columnar encode + file append for
//     kept rings (store_sweep_overhead_pct, ratcheted by perf_ratchet's
//     RATCHET_STORE_MAX_PCT). Capture attaches rings to every
//     connection, so the capture run is compared against the trace-ON
//     sweep — the same ring-write work — not against the bare sweep,
//     which would double-count the first cost. The micro store figure
//     times the encoder alone on a captive ring, so it cannot conflate
//     ring-write or measurement cost.
//
// Env overrides: TRACE_CONNECTIONS (default 20000), TRACE_REPEATS
// (default 7, best-of, interleaved across configurations),
// BENCH_TRACE_JSON (output path, default "BENCH_TRACE.json").
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.h"
#include "http/server_app.h"
#include "obs/flight_recorder.h"
#include "obs/instrument.h"
#include "obs/store/store_writer.h"
#include "tcp/connection.h"
#include "util/artifacts.h"
#include "util/checked_write.h"
#include "workload/web_workload.h"

using namespace prr;

namespace {

uint64_t fingerprint(const exp::ArmResult& r) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  mix(r.metrics.data_segments_sent);
  mix(r.metrics.retransmits_total);
  mix(r.metrics.timeouts_total);
  mix(r.total_workload_bytes);
  mix(static_cast<uint64_t>(r.recovery_log.count()));
  mix(static_cast<uint64_t>(r.latency.responses().size()));
  mix(static_cast<uint64_t>(r.total_network_transmit_time.ns()));
  return h;
}

struct Measurement {
  double seconds = 0;
  uint64_t digest = 0;
  uint64_t records = 0;
  uint64_t acks = 0;
};

Measurement run_once(const workload::Population& pop,
                     const exp::RunOptions& opts) {
  const auto t0 = std::chrono::steady_clock::now();
  const exp::ArmResult r =
      exp::run_arm(pop, exp::ArmConfig::prr_arm(), opts);
  const auto t1 = std::chrono::steady_clock::now();
  Measurement m;
  m.seconds = std::chrono::duration<double>(t1 - t0).count();
  m.digest = fingerprint(r);
  const obs::Counter* written =
      r.registry.find_counter("obs.trace.records_written");
  m.records = written != nullptr ? written->value() : 0;
  m.acks = r.metrics.data_segments_sent;  // ~1 ACK per data segment
  return m;
}

void keep_best(Measurement* best, const Measurement& m, bool first) {
  if (first || m.seconds < best->seconds) *best = m;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n == 0 ? 0 : (n % 2 != 0 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2);
}

// Single-connection micro measurement (the per-ACK acceptance basis):
// the same 100 kB transfer as micro_perack_cost's BM_ConnectionRun,
// repeated back to back with the recorder detached or attached to one
// hoisted ring. Returns seconds per connection.
double micro_seconds_per_conn(bool traced, int iters, uint64_t* records) {
  obs::FlightRecorder recorder(4096);
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < iters; ++i) {
    recorder.clear();
    sim::Simulator sim;
    tcp::ConnectionConfig cfg;
    cfg.path = net::Path::Config::symmetric(util::DataRate::mbps(10),
                                            sim::Time::milliseconds(40),
                                            /*queue_packets=*/100);
    tcp::Connection conn(sim, cfg, sim::Rng(5));
    std::optional<obs::Instrument> instrument;
    if (traced) instrument.emplace(sim, conn, recorder, /*conn_id=*/0);
    std::vector<http::ResponseSpec> responses(1);
    responses[0].bytes = 100'000;
    http::ServerApp app(sim, conn, responses);
    app.start();
    sim.run(sim::Time::seconds(30));
  }
  const auto t1 = std::chrono::steady_clock::now();
  *records = recorder.total_written();  // last iteration's ring
  return std::chrono::duration<double>(t1 - t0).count() / iters;
}

}  // namespace

int main() {
  bench::print_header(
      "Trace overhead: flight recorder attached vs detached",
      "wall-clock tax of per-connection tracing over a fixed web sweep; "
      "aggregates must be byte-identical with tracing on or off");

  const char* conn_env = std::getenv("TRACE_CONNECTIONS");
  const char* rep_env = std::getenv("TRACE_REPEATS");
  const char* json_env = std::getenv("BENCH_TRACE_JSON");
  // 20k connections puts one leg near a third of a second — small
  // enough to keep the bench under ~10 s, large enough that the paired
  // ratios below resolve single-digit overhead through machine jitter
  // (at 2k a leg is ~30 ms and the store tax drowns in scheduler noise).
  const int connections = conn_env ? std::atoi(conn_env) : 20000;
  const int repeats = rep_env ? std::atoi(rep_env) : 7;
  const std::string json_path = json_env ? json_env : "BENCH_TRACE.json";

  workload::WebWorkload pop;
  exp::RunOptions opts;
  opts.connections = connections;
  opts.seed = 20110501;
  opts.threads = 1;  // serial: overhead unobscured by scheduling

  std::printf("%d connections, best of %d\n\n", connections, repeats);

  // Store capture under the headline sweep policy. Capture necessarily
  // attaches the per-shard ring to every connection (the policy decides
  // at teardown, so the records must exist), so that run pays the
  // ring-write tax too — the store tax alone (policy eval + encode +
  // file append) is the delta vs the trace-ON run, which pays the same
  // ring-write cost and nothing else.
  exp::RunOptions on_opts = opts;
  on_opts.trace = true;
  exp::RunOptions store_opts = opts;
  store_opts.capture = "sample=64,full=timeout";
  store_opts.store_path = util::artifact_path("bench_trace.prrstore");

  // The three configurations are measured as PAIRED rounds — each round
  // runs all three back to back and contributes one on/off and one
  // store/on ratio — and the reported overheads are the median of the
  // per-round ratios. Machine drift (thermal, a background daemon)
  // moves the baseline by ±10% across seconds, so unpaired best-of
  // minima taken at different moments routinely produce nonsense like
  // "tracing made it faster". Within a round the drift is shared by the
  // legs and divides out; alternating the leg order each round cancels
  // the drift that a fixed order would always charge to the same leg;
  // the median discards rounds a one-off stall landed in.
  Measurement off, on, store;
  std::vector<double> ring_ratio, store_ratio;
  for (int r = 0; r < repeats; ++r) {
    Measurement o, t, s;
    if (r % 2 == 0) {
      o = run_once(pop, opts);
      t = run_once(pop, on_opts);
      s = run_once(pop, store_opts);
    } else {
      s = run_once(pop, store_opts);
      t = run_once(pop, on_opts);
      o = run_once(pop, opts);
    }
    keep_best(&off, o, r == 0);
    keep_best(&on, t, r == 0);
    keep_best(&store, s, r == 0);
    if (o.seconds > 0 && t.seconds > 0) {
      ring_ratio.push_back(t.seconds / o.seconds);
      store_ratio.push_back(s.seconds / t.seconds);
    }
  }
  const std::string store_file =
      obs::store_path_for_arm(store_opts.store_path, "PRR");
  uint64_t store_bytes = 0;
  {
    std::FILE* sf = std::fopen(store_file.c_str(), "rb");
    if (sf != nullptr) {
      std::fseek(sf, 0, SEEK_END);
      store_bytes = static_cast<uint64_t>(std::ftell(sf));
      std::fclose(sf);
    }
    std::remove(store_file.c_str());
  }

  const bool identical =
      off.digest == on.digest && off.digest == store.digest;
  const double overhead_pct = (median(ring_ratio) - 1.0) * 100.0;
  const double ns_per_record =
      on.records > 0 ? overhead_pct / 100.0 * off.seconds * 1e9 /
                           static_cast<double>(on.records)
                     : 0;

  // Store tax vs the trace-on run: both attach rings to every
  // connection, so the quotient isolates capture (policy + encode + IO).
  const double store_pct = (median(store_ratio) - 1.0) * 100.0;

  std::printf("trace off: %8.3fs\n", off.seconds);
  std::printf("trace on:  %8.3fs  (median %+.2f%%)\n", on.seconds,
              overhead_pct);
  std::printf("store on:  %8.3fs  (median %+.2f%% vs trace on, policy %s, "
              "%llu B kept)\n",
              store.seconds, store_pct, store_opts.capture.c_str(),
              (unsigned long long)store_bytes);
  std::printf("records:   %llu (%.1f per connection, ~%.1f ns each)\n",
              static_cast<unsigned long long>(on.records),
              static_cast<double>(on.records) / connections, ns_per_record);
  std::printf("aggregates identical trace/store on/off: %s\n",
              identical ? "yes" : "NO — TRACING PERTURBED THE SIMULATION");

  // Micro: one 100 kB connection, instrumented vs bare (best of repeats).
  const int micro_iters = 500;
  uint64_t micro_records = 0;
  double micro_off = 1e9;
  double micro_on = 1e9;
  for (int i = 0; i < repeats; ++i) {
    uint64_t ignored = 0;
    const double off_s = micro_seconds_per_conn(false, micro_iters, &ignored);
    const double on_s =
        micro_seconds_per_conn(true, micro_iters, &micro_records);
    if (off_s < micro_off) micro_off = off_s;
    if (on_s < micro_on) micro_on = on_s;
  }
  const double micro_pct = (micro_on / micro_off - 1.0) * 100.0;
  std::printf("\nmicro (100 kB connection, best of %d x %d):\n", repeats,
              micro_iters);
  std::printf("untraced: %7.2f us/conn\n", micro_off * 1e6);
  std::printf("traced:   %7.2f us/conn  (%+.2f%%, %llu records/conn)\n",
              micro_on * 1e6, micro_pct,
              (unsigned long long)micro_records);

  // Store encode alone: replay one traced connection into a captive
  // ring, then time ONLY the columnar encoder over it. No simulation,
  // ring writes, or IO in the timed region — this is the pure per-kept-
  // connection encode cost the capture path adds at teardown.
  double micro_store = 0;
  {
    obs::FlightRecorder ring(4096);
    sim::Simulator sim;
    tcp::ConnectionConfig cfg;
    cfg.path = net::Path::Config::symmetric(util::DataRate::mbps(10),
                                            sim::Time::milliseconds(40),
                                            /*queue_packets=*/100);
    tcp::Connection conn(sim, cfg, sim::Rng(5));
    obs::Instrument instrument(sim, conn, ring, /*conn_id=*/0);
    std::vector<http::ResponseSpec> responses(1);
    responses[0].bytes = 100'000;
    http::ServerApp app(sim, conn, responses);
    app.start();
    sim.run(sim::Time::seconds(30));

    const int enc_iters = 2000;
    obs::StoreEncoder encoder;
    obs::StoreShard shard;
    double best = 1e9;
    for (int r = 0; r < repeats; ++r) {
      const auto t0 = std::chrono::steady_clock::now();
      for (int i = 0; i < enc_iters; ++i) {
        shard.clear();
        encoder.encode(ring, /*conn=*/0, obs::kBlockFull, &shard);
      }
      const auto t1 = std::chrono::steady_clock::now();
      const double s =
          std::chrono::duration<double>(t1 - t0).count() / enc_iters;
      if (s < best) best = s;
    }
    micro_store = best;
    std::printf("store enc: %7.2f us/conn  (encode of %zu-record ring, "
                "separate from ring-write cost above)\n",
                micro_store * 1e6, ring.size());
  }
  const double micro_store_pct =
      micro_off > 0 ? micro_store / micro_off * 100.0 : 0;

  char body[2048];
  std::snprintf(
      body, sizeof(body),
      "{\n"
      "  \"benchmark\": \"trace_overhead\",\n"
      "  \"connections\": %d,\n"
      "  \"repeats\": %d,\n"
      "  \"seconds_trace_off\": %.4f,\n"
      "  \"seconds_trace_on\": %.4f,\n"
      "  \"overhead_pct\": %.2f,\n"
      "  \"records_written\": %llu,\n"
      "  \"ns_per_record\": %.1f,\n"
      "  \"seconds_store_on\": %.4f,\n"
      "  \"store_sweep_overhead_pct\": %.2f,\n"
      "  \"store_capture_policy\": \"%s\",\n"
      "  \"store_bytes\": %llu,\n"
      "  \"micro_us_per_conn_untraced\": %.2f,\n"
      "  \"micro_us_per_conn_traced\": %.2f,\n"
      "  \"micro_overhead_pct\": %.2f,\n"
      "  \"micro_us_per_conn_store_encode\": %.2f,\n"
      "  \"micro_store_encode_pct\": %.2f,\n"
      "  \"micro_records_per_conn\": %llu,\n"
      "  \"aggregates_identical\": %s\n"
      "}\n",
      connections, repeats,
      off.seconds, on.seconds, overhead_pct,
      static_cast<unsigned long long>(on.records), ns_per_record,
      store.seconds, store_pct, store_opts.capture.c_str(),
      (unsigned long long)store_bytes, micro_off * 1e6, micro_on * 1e6,
      micro_pct, micro_store * 1e6, micro_store_pct,
      static_cast<unsigned long long>(micro_records),
      identical ? "true" : "false");
  // checked_write_json: a torn artifact (ENOSPC, a buffered tail lost at
  // exit) or malformed body must fail the bench here, not surface later
  // as unparseable BENCH_TRACE.json in perf_ratchet.
  if (!util::checked_write_json(json_path, body)) {
    std::fprintf(stderr, "short write to %s\n", json_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", json_path.c_str());
  return identical ? 0 : 1;
}
