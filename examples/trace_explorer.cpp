// Tracing & metrics walkthrough. Two parts:
//
//  1. A single lossy transfer with a flight recorder attached. Every
//     CA-state transition, per-ACK PRR decision, retransmission, timer
//     event and wire segment lands in a preallocated ring of 64-byte
//     records; the example prints a human-readable slice of the ring,
//     an ss(8)-style snapshot of the sender, and writes the whole ring
//     as Chrome trace-event JSON.
//
//     Open trace.json at https://ui.perfetto.dev (or chrome://tracing):
//     drag the file into the window. You get one track per connection
//     with a "fast recovery" slice spanning each recovery episode,
//     instant markers for retransmits/RTOs, and counter tracks plotting
//     cwnd/pipe/ssthresh and prr_delivered/prr_out over simulated time —
//     the same plots as the paper's time-sequence figures, but
//     interactive.
//
//  2. A traced experiment sweep. Every arm aggregates a metrics
//     registry (named counters/gauges/log-scale histograms, merged
//     deterministically across worker shards); the example writes it as
//     registry.json — and a columnar trace store (sweep.prr.prrstore)
//     holding every connection's ring, ready for prr_query.
//
// With `--store FILE [--conn ID]` the walkthrough instead runs offline:
// it opens a .prrstore written by a captured sweep (this example's own
// Part 2, prr_query sweep, or RunOptions::store_path anywhere) and
// renders one stored connection — record slice + Perfetto JSON — without
// re-simulating anything.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/trace_explorer
// Any other argument, or a flag without its value, exits 2.
#include <cstdio>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "exp/experiment.h"
#include "net/loss_model.h"
#include "obs/flight_recorder.h"
#include "obs/instrument.h"
#include "obs/perfetto.h"
#include "obs/snapshot.h"
#include "obs/store/store_reader.h"
#include "util/artifacts.h"
#include "util/parse_number.h"
#include "sim/simulator.h"
#include "tcp/connection.h"
#include "workload/web_workload.h"

using namespace prr;

namespace {

// Writes under the artifact directory ($PRR_ARTIFACT_DIR or
// ./artifacts) so runs from a source checkout keep the tree clean.
bool write_file(const char* name, const std::string& body,
                std::string* path_out) {
  const std::string path = util::artifact_path(name);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  bool ok = std::fwrite(body.data(), 1, body.size(), f) == body.size();
  ok = std::fclose(f) == 0 && ok;
  *path_out = path;
  return ok;
}

// --store mode: render one stored connection offline.
int explore_store(const std::string& path, int64_t want_conn) {
  obs::StoreReader reader;
  std::string err;
  if (!obs::StoreReader::open(path, &reader, &err)) {
    std::printf("trace_explorer: %s\n", err.c_str());
    return 1;
  }
  const std::vector<uint64_t> conns = reader.connections();
  if (conns.empty()) {
    std::printf("store %s holds no connections.\n", path.c_str());
    return 0;
  }
  const uint64_t conn =
      want_conn >= 0 ? static_cast<uint64_t>(want_conn) : conns.front();
  std::vector<obs::TraceRecord> records;
  if (!reader.read_connection(conn, &records)) {
    std::printf("store decode failed for conn %llu\n",
                (unsigned long long)conn);
    return 1;
  }
  std::printf("store %s: arm %s, %zu connection(s); showing conn %llu "
              "(%zu records)\n\n",
              path.c_str(), reader.meta().arm.c_str(), conns.size(),
              (unsigned long long)conn, records.size());
  if (records.empty()) {
    std::printf("conn %llu is not in this store (policy %s). Stored ids "
                "start at %llu.\n",
                (unsigned long long)conn, reader.meta().policy.c_str(),
                (unsigned long long)conns.front());
    return 0;
  }
  std::size_t shown = 0;
  for (const obs::TraceRecord& r : records) {
    if (r.type == obs::TraceType::kWireData ||
        r.type == obs::TraceType::kWireAck) {
      continue;
    }
    std::printf("  %s\n", obs::describe(r).c_str());
    if (++shown >= 14) break;
  }
  std::string out_path;
  if (write_file("trace.json", obs::perfetto_trace_json(records),
                 &out_path)) {
    std::printf("\nwrote %s from the stored records -- load it at "
                "https://ui.perfetto.dev.\n",
                out_path.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string store_path;
  int64_t store_conn = -1;
  for (int i = 1; i < argc; ++i) {
    const bool has_value = i + 1 < argc;
    if (std::strcmp(argv[i], "--store") == 0 && has_value) {
      store_path = argv[++i];
    } else if (std::strcmp(argv[i], "--conn") == 0 && has_value) {
      if (!util::parse_flag("--conn", argv[++i], store_conn, int64_t{0})) {
        return 2;
      }
    } else {
      std::fprintf(stderr,
                   "trace_explorer: unknown flag or missing value '%s'\n"
                   "usage: trace_explorer [--store FILE [--conn ID]]\n",
                   argv[i]);
      return 2;
    }
  }
  if (!store_path.empty()) return explore_store(store_path, store_conn);

  // ---- Part 1: one traced lossy transfer -------------------------------
  sim::Simulator sim;
  tcp::ConnectionConfig cfg;
  cfg.sender.mss = 1000;
  cfg.sender.handshake_rtt = sim::Time::milliseconds(50);
  cfg.path = net::Path::Config::symmetric(util::DataRate::mbps(4),
                                          sim::Time::milliseconds(50), 100);
  tcp::Connection conn(sim, cfg, sim::Rng(1));

  obs::FlightRecorder recorder(1 << 14);
  obs::Instrument instrument(sim, conn, recorder, /*conn_id=*/0);

  // Drop two segments early so the transfer goes through a full PRR fast
  // recovery — that is the part worth looking at in the trace viewer.
  conn.path().data_link().set_loss_model(
      std::make_unique<net::DeterministicLoss>(std::set<uint64_t>{3, 4}));
  conn.write(60'000);
  sim.run(sim::Time::seconds(30));

  std::printf("transfer done: %llu records in the ring (%llu written, "
              "%llu dropped)\n\n",
              (unsigned long long)recorder.size(),
              (unsigned long long)recorder.total_written(),
              (unsigned long long)recorder.dropped());

  std::printf("first records of the fast-recovery episode:\n");
  std::size_t shown = 0;
  bool in_recovery = false;
  for (std::size_t i = 0; i < recorder.size() && shown < 14; ++i) {
    const obs::TraceRecord& r = recorder[i];
    if (r.type == obs::TraceType::kEnterRecovery) in_recovery = true;
    if (!in_recovery || r.type == obs::TraceType::kWireData ||
        r.type == obs::TraceType::kWireAck) {
      continue;
    }
    std::printf("  %s\n", obs::describe(r).c_str());
    ++shown;
  }

  std::printf("\nsender snapshot (ss -i style):\n  %s\n",
              obs::snapshot(conn.sender(), /*conn_id=*/0).c_str());

  std::string out_path;
  if (write_file("trace.json", obs::perfetto_trace_json(recorder),
                 &out_path)) {
    std::printf("wrote %s -- load it at https://ui.perfetto.dev: "
                "expand \"prr simulator\", then scrub the conn0 window "
                "counter track through the fast-recovery slice.\n",
                out_path.c_str());
  }

  // ---- Part 2: a traced sweep and its metrics registry -----------------
  workload::WebWorkload pop;
  exp::RunOptions opts;
  opts.connections = 200;
  opts.seed = 20110501;
  opts.threads = 0;  // registry merge is deterministic across shards
  opts.trace = true;
  // Persist every connection's ring to a columnar trace store alongside
  // the registry — the sweep-scale counterpart of Part 1's single ring.
  opts.store_path = util::artifact_path("sweep.prrstore");
  opts.capture = "all";
  const exp::ArmResult result =
      exp::run_arm(pop, exp::ArmConfig::prr_arm(), opts);

  std::printf("\nsweep: %llu connections, %llu retransmits, "
              "%llu trace records written\n",
              (unsigned long long)result.connections_run,
              (unsigned long long)result.metrics.retransmits_total,
              (unsigned long long)result.registry
                  .find_counter("obs.trace.records_written")
                  ->value());
  if (write_file("registry.json", result.registry.to_json(), &out_path)) {
    std::printf("wrote %s -- counters, gauges and log-scale "
                "histograms for the whole arm.\n",
                out_path.c_str());
  }
  const std::string store_file =
      obs::store_path_for_arm(opts.store_path, "PRR");
  std::printf("wrote %s -- the whole sweep's trace rings, columnar.\n"
              "explore it offline:\n"
              "  ./examples/prr_query info %s\n"
              "  ./examples/trace_explorer --store %s --conn 7\n",
              store_file.c_str(), store_file.c_str(), store_file.c_str());
  return 0;
}
