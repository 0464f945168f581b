// prr_query: the inspection CLI (DESIGN.md §9, §14.4). Store commands
// work offline from .prrstore files — the paper's own workflow, where
// tables are mined from persisted traces of production flows rather
// than recomputed; `scenario`, `episodes --conn` without a STORE and
// `diff` run live.
//
//   prr_query scenario [fig2|fig3|fig4]     one §4.1 testbed run (Figs 2-4):
//                                           ASCII time-sequence, --csv,
//                                           --pcap F, --out F (Perfetto)
//   prr_query sweep [--out PREFIX] [...]    run a sweep, print one summary
//                                           row per arm; --out captures a
//                                           store and registry per arm
//   prr_query replay [--no-inject]          chaos sweep, quarantine, replay
//   prr_query info STORE                    header meta + block geometry
//   prr_query records STORE [--conn ID]     record dump (--out F: Perfetto)
//   prr_query agg STORE --field F [...]     filter/group-by/aggregate JSON
//   prr_query series STORE --conn ID [...]  (time, field) TSV for plotting
//   prr_query episodes STORE                episode table rebuilt from the
//                                           store (Tables 3/5/6/7 machinery)
//   prr_query episodes [STORE] --conn ID    one connection's ACK ledgers
//   prr_query diff --conn ID [--out F]      first divergence of two arms
//   prr_query table3 STORE                  Table 3 counters + ratios
//   prr_query critpath STORE [--conn ID]    where recovery latency went
//   prr_query merge OUT IN1 IN2 ...         merge fork-per-shard stores
//
// Aggregates: --field accepts at_ns|a|b|f0..f5 plus per-type aliases
// (--type ack --field cwnd). --group conn|type|time (+--bucket-ms N).
// A flag the command does not read exits 2 and names the flag; so does a
// rejected invocation of any kind, with the usage text on stderr.
// Determinism: every byte printed (and every file written) is a pure
// function of the input store bytes, or of (--seed, --conn, arm) live.
#include <cctype>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "exp/experiment.h"
#include "exp/scenarios.h"
#include "obs/episodes.h"
#include "obs/flight_recorder.h"
#include "obs/json.h"
#include "obs/perfetto.h"
#include "obs/query.h"
#include "obs/store/store_reader.h"
#include "obs/store/store_writer.h"
#include "obs/trace_diff.h"
#include "util/parse_number.h"
#include "util/table.h"
#include "workload/video_workload.h"
#include "workload/web_workload.h"

using namespace prr;

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: prr_query <command> [options]\n"
      "  scenario [fig2|fig3|fig4]  one testbed run (default fig2) under --arm\n"
      "                           as an ASCII time-sequence, counters and\n"
      "                           snapshot; --csv (trace CSV) or --pcap F\n"
      "                           (capture); --out F (Perfetto JSON)\n"
      "  sweep                    run a sweep, one summary row per arm\n"
      "    --workload web|video   DC1 Web or DC2 video population (default web)\n"
      "    --out PREFIX           capture PREFIX.<arm>.prrstore and write\n"
      "                           PREFIX.<arm>.registry.json per arm\n"
      "    --capture SPEC         all | none | sample=N | full=TRIG|TRIG...\n"
      "                           | recovery_ms>=X | retx>=N   (default all)\n"
      "    --arm NAME             prr | prr-crb | prr-ub | rfc3517 | linux |\n"
      "                           all  (default all)\n"
      "    --connections N --first ID --seed S --threads T --chaos\n"
      "  replay                   chaos sweep with one planted violation:\n"
      "                           quarantine, triage and replay each record\n"
      "                           (--no-inject: honest sweep, must be clean;\n"
      "                           --out PREFIX: quarantine Perfetto JSON)\n"
      "  info STORE               header meta + block/record accounting\n"
      "  records STORE            dump records (--conn ID, --limit N;\n"
      "                           --out FILE also writes Perfetto JSON)\n"
      "  agg STORE --field F      count/sum/min/max[/mean] aggregate JSON\n"
      "    --type T               restrict to one record type (ack, ...)\n"
      "    --group conn|type|time group rows (--bucket-ms N, default 1000)\n"
      "    --conn-min A --conn-max B --sampled-only --full-only\n"
      "    --out FILE             also write the JSON to FILE\n"
      "  series STORE --conn ID   TSV time-series (--type ack --field cwnd)\n"
      "  episodes STORE           rebuild the episode table (--json, --out F)\n"
      "  episodes [STORE] --conn ID  one connection's episodes + ACK\n"
      "                           ledgers (no STORE: live, --arm --seed\n"
      "                           --workload)\n"
      "  diff --conn ID           first divergent decision, re-run live under\n"
      "                           --arm and --arm-b (default prr, rfc3517);\n"
      "                           --seed S, --workload W, --out F (paired\n"
      "                           Perfetto JSON)\n"
      "  table3 STORE             Table 3 counters + ratios from the store\n"
      "  critpath STORE           recovery-latency attribution (--conn ID)\n"
      "  merge OUT IN1 IN2 ...    merge disjoint-range stores into OUT\n"
      "  --no-verify              skip the digest check on open (read cmds)\n");
  return 2;
}

std::vector<exp::ArmConfig> all_arms() {
  return {exp::ArmConfig::prr_arm(), exp::ArmConfig::rfc3517_arm(),
          exp::ArmConfig::linux_arm()};
}

// Accepts the short names and the arms' display names ("PRR",
// "RFC 3517", "Linux"): case-insensitive, spaces/underscores/hyphens
// ignored; "all" (the three arms) only where `allow_all`. "prr-crb" and
// "prr-ub" are PRR under the conservative and the unlimited reduction
// bound. Empty on an unknown name.
std::vector<exp::ArmConfig> parse_arms(const char* name, bool allow_all) {
  std::string key;
  for (const char* p = name; *p != '\0'; ++p) {
    if (*p == ' ' || *p == '_' || *p == '-') continue;
    key.push_back(static_cast<char>(
        std::tolower(static_cast<unsigned char>(*p))));
  }
  if (key == "prr") return {exp::ArmConfig::prr_arm()};
  if (key == "prrcrb" || key == "prrub") {
    exp::ArmConfig arm = exp::ArmConfig::prr_arm();
    arm.name = key == "prrcrb" ? "PRR-CRB" : "PRR-UB";
    arm.prr_bound = key == "prrcrb" ? core::ReductionBound::kConservative
                                    : core::ReductionBound::kUnlimited;
    return {arm};
  }
  if (key == "rfc3517") return {exp::ArmConfig::rfc3517_arm()};
  if (key == "linux") return {exp::ArmConfig::linux_arm()};
  if (key == "all" && allow_all) return all_arms();
  std::fprintf(stderr,
               "unknown arm '%s' (want prr, prr-crb, prr-ub, rfc3517, "
               "linux%s)\n",
               name, allow_all ? " or all" : "");
  return {};
}

// The flags each command reads, space-separated; null for an unknown
// command. `has_store`: a store is read (a STORE argument) or, for
// `sweep`, written (--out). Without a STORE, `episodes` is the live view;
// with one, its --conn view takes neither --json nor --out.
const char* flags_read(const std::string& cmd, bool has_store,
                       bool per_conn) {
  if (cmd == "scenario") return "--arm --csv --pcap --out";
  if (cmd == "sweep") {
    return has_store ? "--workload --out --capture --arm --connections "
                       "--first --seed --threads --chaos"
                     : "--workload --arm --connections --first --seed "
                       "--threads --chaos";
  }
  if (cmd == "replay") return "--no-inject --out";
  if (cmd == "merge") return "";
  if (cmd == "diff") return "--conn --arm --arm-b --seed --workload --out";
  if (cmd == "episodes" && !has_store) return "--conn --arm --seed --workload";
  if (cmd == "episodes") {
    return per_conn ? "--no-verify --conn" : "--no-verify --json --out";
  }
  if (cmd == "info" || cmd == "table3") return "--no-verify";
  if (cmd == "records") return "--no-verify --conn --limit --out";
  if (cmd == "agg") {
    return "--no-verify --field --type --group --bucket-ms --conn-min "
           "--conn-max --sampled-only --full-only --out";
  }
  if (cmd == "series") return "--no-verify --conn --type --field";
  if (cmd == "critpath") return "--no-verify --conn";
  return nullptr;
}

// PREFIX.<arm>: the stem of every file a command writes for one arm, the
// same one its store gets (obs::store_path_for_arm).
std::string arm_stem(const std::string& prefix, const std::string& arm) {
  std::string path = obs::store_path_for_arm(prefix, arm);
  path.resize(path.size() - std::strlen(".prrstore"));
  return path;
}

bool write_json(const std::string& path, const std::string& json) {
  if (obs::checked_write_json(path, json)) return true;
  std::fprintf(stderr, "prr_query: short write to %s\n", path.c_str());
  return false;
}

bool open_store(const std::string& path, bool verify,
                obs::StoreReader* reader) {
  std::string err;
  if (!obs::StoreReader::open(path, reader, &err, verify)) {
    std::fprintf(stderr, "prr_query: %s\n", err.c_str());
    return false;
  }
  return true;
}

int cmd_info(const obs::StoreReader& reader, const std::string& path) {
  const obs::StoreMeta& m = reader.meta();
  std::printf("store    %s\n", path.c_str());
  std::printf("version  %u\n", m.version);
  std::printf("seed     %" PRIu64 "\n", m.seed);
  std::printf("arm      %s\n", m.arm.c_str());
  std::printf("policy   %s\n", m.policy.c_str());
  std::printf("scenario %s\n", m.scenario.empty() ? "(none)"
                                                  : m.scenario.c_str());
  uint64_t payload = 0, full = 0, sampled = 0, truncated = 0;
  for (const auto& b : reader.blocks()) {
    payload += b.bytes;
    if (b.flags & obs::kBlockFull) ++full;
    if (b.flags & obs::kBlockSampled) ++sampled;
    if (b.flags & obs::kBlockTruncated) ++truncated;
  }
  std::printf("blocks   %zu (%" PRIu64 " full, %" PRIu64 " sampled, %" PRIu64
              " ring-truncated)\n",
              reader.blocks().size(), full, sampled, truncated);
  std::printf("conns    %zu\n", reader.connections().size());
  std::printf("records  %" PRIu64 " (%.2f payload bytes/record)\n",
              reader.total_records(),
              reader.total_records() == 0
                  ? 0.0
                  : static_cast<double>(payload) /
                        static_cast<double>(reader.total_records()));
  return 0;
}

// With `out_file`, the records shown are also written there as Perfetto
// trace-event JSON (https://ui.perfetto.dev).
int cmd_records(const obs::StoreReader& reader, int64_t conn,
                uint64_t limit, const std::string& out_file) {
  std::vector<obs::TraceRecord> records;
  std::string err;
  bool read = true;
  if (conn >= 0) {
    read = reader.read_connection(static_cast<uint64_t>(conn), &records,
                                  obs::kAllColumns, &err);
  } else {
    for (std::size_t i = 0; read && i < reader.blocks().size(); ++i) {
      if (limit != 0 && records.size() >= limit) break;
      read = reader.read_block(i, &records, obs::kAllColumns, &err);
    }
  }
  if (!read) {
    std::fprintf(stderr, "prr_query: %s\n", err.c_str());
    return 1;
  }
  if (limit != 0 && records.size() > limit) records.resize(limit);
  for (const obs::TraceRecord& r : records) {
    std::printf("%s\n", obs::describe(r).c_str());
  }
  if (!out_file.empty() &&
      !write_json(out_file, obs::perfetto_trace_json(records))) {
    return 1;
  }
  return 0;
}

int cmd_agg(const obs::StoreReader& reader, const obs::AggregateQuery& q,
            const std::string& out_file) {
  obs::AggregateResult result;
  std::string err;
  if (!obs::run_aggregate(reader, q, &result, &err)) {
    std::fprintf(stderr, "prr_query: %s\n", err.c_str());
    return 1;
  }
  const std::string json = result.to_json();
  std::printf("%s\n", json.c_str());
  if (!out_file.empty() && !write_json(out_file, json)) return 1;
  return 0;
}

int cmd_series(const obs::StoreReader& reader, uint64_t conn,
               obs::TraceType type, obs::QueryField field) {
  std::vector<obs::SeriesPoint> series;
  std::string err;
  if (!obs::extract_series(reader, conn, type, field, &series, &err)) {
    std::fprintf(stderr, "prr_query: %s\n", err.c_str());
    return 1;
  }
  std::printf("# conn %" PRIu64 " type %s: time_ms\tvalue\n", conn,
              obs::to_string(type));
  for (const auto& pt : series) {
    std::printf("%.6f\t%" PRIu64 "\n",
                static_cast<double>(pt.at_ns) / 1e6, pt.value);
  }
  return 0;
}

int cmd_episodes(const obs::StoreReader& reader, bool as_json,
                 const std::string& out_file) {
  obs::EpisodeTable table;
  std::string err;
  if (!obs::episodes_from_store(reader, obs::QueryFilter{}, &table, &err)) {
    std::fprintf(stderr, "prr_query: %s\n", err.c_str());
    return 1;
  }
  if (as_json) {
    std::printf("%s\n", table.to_json().c_str());
  } else {
    std::printf("%s\n", table.summary_string().c_str());
  }
  if (!out_file.empty() && !write_json(out_file, table.to_json())) return 1;
  return 0;
}

void print_episodes(const std::vector<obs::RecoveryEpisode>& episodes) {
  for (std::size_t i = 0; i < episodes.size(); ++i) {
    std::printf("---- episode %zu/%zu ----\n%s\n", i + 1, episodes.size(),
                obs::describe(episodes[i]).c_str());
  }
}

// One stored connection's episodes with their per-ACK ledgers: the
// DeliveredData, sndcnt, pipe vs ssthresh and PRR internals of every ACK,
// the exit, and the first post-recovery cwnd samples.
int cmd_conn_episodes(const obs::StoreReader& reader, uint64_t conn) {
  std::printf("connection %" PRIu64 " from store (arm %s, seed %" PRIu64
              ")\n",
              conn, reader.meta().arm.c_str(), reader.meta().seed);
  std::vector<obs::TraceRecord> records;
  std::string err;
  if (!reader.read_connection(conn, &records, obs::kAllColumns, &err)) {
    std::fprintf(stderr, "prr_query: %s\n", err.c_str());
    return 1;
  }
  if (records.empty()) {
    std::printf("connection %" PRIu64 " is not in this store — the "
                "capture policy (%s) did not keep it. Try prr_query info.\n",
                conn, reader.meta().policy.c_str());
    return 0;
  }
  obs::EpisodeBuilder builder({.keep_ledgers = true});
  for (const obs::TraceRecord& r : records) builder.on_record(r);
  builder.finish();
  std::printf("%zu stored records, %zu episode(s)\n\n", records.size(),
              builder.episodes().size());
  if (builder.episodes().empty()) {
    std::printf("no recovery episodes in the stored slice.\n");
  }
  print_episodes(builder.episodes());
  return 0;
}

// The live views' header line: the path connection `id` draws, from
// the same (seed, id) stream the harness uses (exp/experiment.cc).
void print_path(const workload::Population& pop, uint64_t seed, uint64_t id) {
  const workload::ConnectionSample sample =
      pop.sample(sim::Rng(seed).fork(id).fork(100));
  std::printf("  path: %.2f Mbps, RTT %lld ms, queue %zu pkts, burst "
              "loss p=%.4f\n",
              sample.bandwidth.mbps_d(), (long long)sample.rtt.ms(),
              sample.queue_packets, sample.loss.p_good_to_bad);
}

// The same view re-run live: the connection runs again in isolation with
// every record kept (trace_connection), so nothing is lost to the ring.
int cmd_conn_episodes(const workload::Population& pop,
                      const exp::ArmConfig& arm, const exp::RunOptions& opts,
                      uint64_t conn) {
  std::printf("connection %" PRIu64 " under arm %s (seed %" PRIu64 ")\n",
              conn, arm.name.c_str(), opts.seed);
  print_path(pop, opts.seed, conn);
  const exp::TracedConnection t = exp::trace_connection(pop, arm, opts, conn);
  std::printf("%zu trace records, %zu episode(s)%s%s\n\n", t.records.size(),
              t.episodes.size(), t.aborted ? ", ABORTED" : "",
              t.all_acked ? ", fully acked" : "");
  if (t.episodes.empty()) {
    std::printf("no recovery episodes: this connection never entered "
                "fast recovery. Try another id.\n");
  }
  print_episodes(t.episodes);
  return 0;
}

// Runs the SAME connection under two arms. Common random numbers make
// the sample paths identical, so the streams match record for record
// until the first divergent sender decision; prints that decision with
// context and, with `out_file`, writes a paired Perfetto trace (arm A =
// pid 1, arm B = pid 2) with FIRST DIVERGENCE markers.
int cmd_diff(const workload::Population& pop, const exp::ArmConfig& arm_a,
             const exp::ArmConfig& arm_b, const exp::RunOptions& opts,
             uint64_t conn, const std::string& out_file) {
  std::printf("connection %" PRIu64 ": %s vs %s (seed %" PRIu64
              ", CRN-aligned)\n",
              conn, arm_a.name.c_str(), arm_b.name.c_str(), opts.seed);
  print_path(pop, opts.seed, conn);
  std::printf("\n");
  const exp::TracedConnection a =
      exp::trace_connection(pop, arm_a, opts, conn);
  const exp::TracedConnection b =
      exp::trace_connection(pop, arm_b, opts, conn);
  std::printf("%-10s %zu records, %zu episode(s)\n", arm_a.name.c_str(),
              a.records.size(), a.episodes.size());
  std::printf("%-10s %zu records, %zu episode(s)\n\n", arm_b.name.c_str(),
              b.records.size(), b.episodes.size());
  const obs::DivergencePoint d = obs::first_divergence(a.records, b.records);
  std::printf("%s\n",
              obs::explain_divergence(d, arm_a.name, arm_b.name).c_str());
  if (out_file.empty()) return 0;
  if (!write_json(out_file, obs::perfetto_diff_json(a.records, b.records,
                                                    arm_a.name, arm_b.name))) {
    return 1;
  }
  std::printf("wrote %s -- open it at https://ui.perfetto.dev "
              "(%s = pid 1, %s = pid 2)\n",
              out_file.c_str(), arm_a.name.c_str(), arm_b.name.c_str());
  return 0;
}

// One §4.1 testbed run (Figs. 2-4) under `arm`'s recovery and reduction
// bound: the time-sequence trace as ASCII (with the counters, recovery
// events and a sender snapshot) or as CSV, optionally a pcap capture and
// the recorder's records as Perfetto JSON.
int cmd_scenario(const std::string& fig, const exp::ArmConfig& arm, bool csv,
                 const std::string& pcap, const std::string& out_file) {
  exp::FigureScenario scenario =
      fig == "fig3" ? exp::FigureScenario::fig3(arm.recovery)
      : fig == "fig4" ? exp::FigureScenario::fig4(arm.recovery)
                      : exp::FigureScenario::fig2(arm.recovery);
  scenario.prr_bound = arm.prr_bound;
  scenario.pcap_path = pcap;
  const exp::FigureRun run = exp::run_figure_scenario(scenario);
  if (csv) {
    run.trace.write_csv(std::cout);
  } else {
    if (!pcap.empty()) std::printf("wrote capture to %s\n", pcap.c_str());
    std::printf("%s on %s\n\n%s\n", arm.name.c_str(), fig.c_str(),
                run.trace.render_ascii().c_str());
    std::printf("segments=%llu retransmits=%llu fast=%llu timeouts=%llu "
                "recoveries=%llu\nall data ACKed at %lld ms\n",
                (unsigned long long)run.metrics.data_segments_sent,
                (unsigned long long)run.metrics.retransmits_total,
                (unsigned long long)run.metrics.fast_retransmits,
                (unsigned long long)run.metrics.timeouts_total,
                (unsigned long long)run.metrics.fast_recovery_events,
                (long long)run.all_acked_at.ms());
    for (const auto& e : run.recovery_log.events()) {
      std::printf("recovery event: %lld..%lld ms, pipe@start=%llu B, "
                  "ssthresh=%llu B, cwnd after exit=%.0f segments\n",
                  (long long)e.start.ms(), (long long)e.end.ms(),
                  (unsigned long long)e.pipe_at_start,
                  (unsigned long long)e.ssthresh, e.cwnd_after_exit_segs());
    }
    std::printf("sender snapshot (ss -i style):\n  %s",
                run.snapshot.c_str());
  }
  if (out_file.empty()) return 0;
  if (!write_json(out_file, obs::perfetto_trace_json(run.records))) return 1;
  if (!csv) {
    std::printf("wrote %s -- open it at https://ui.perfetto.dev\n",
                out_file.c_str());
  }
  return 0;
}

// Runs the arms over identical sample paths and prints one summary row
// per arm: the §5 response-latency race, plus network transmit time and
// time in loss recovery (Table 10's columns). With `out_prefix` each
// arm's store was captured by the run; its registry is written beside it.
int cmd_sweep(const workload::Population& pop,
              const std::vector<exp::ArmConfig>& arms,
              const exp::RunOptions& opts, const std::string& out_prefix) {
  const auto results = exp::run_arms(pop, arms, opts);
  util::Table t({"arm", "lossy median [ms]", "lossy mean [ms]",
                 "overall mean [ms]", "timeouts", "fast recoveries",
                 "retransmission rate", "transmit time [s]",
                 "in loss recovery [s]"});
  for (const auto& r : results) {
    const util::Samples lossy = r.latency.latency_ms(
        stats::LatencyTracker::Filter::kWithRetransmit);
    t.add_row({r.name, util::Table::fmt(lossy.quantile(0.5), 0),
               util::Table::fmt(lossy.mean(), 0),
               util::Table::fmt(r.latency.latency_ms().mean(), 0),
               std::to_string(r.metrics.timeouts_total),
               std::to_string(r.metrics.fast_recovery_events),
               util::Table::fmt_pct(r.retransmission_rate()),
               util::Table::fmt(r.total_network_transmit_time.seconds_d()),
               util::Table::fmt(r.total_loss_recovery_time.seconds_d()) +
                   " (" +
                   util::Table::fmt_pct(r.fraction_time_in_loss_recovery(),
                                        0) +
                   ")"});
  }
  std::printf("%s", t.to_string().c_str());
  if (out_prefix.empty()) return 0;
  // Summarize from the writers' own accounting (carried on ArmResult):
  // reopening the files would read every kept byte once more to check
  // its digest, for counts the writers already have.
  for (std::size_t i = 0; i < results.size(); ++i) {
    const std::string path = obs::store_path_for_arm(out_prefix, arms[i].name);
    std::printf("%-10s %s: %" PRIu64 " conns, %" PRIu64 " records\n",
                arms[i].name.c_str(), path.c_str(),
                results[i].store_connections, results[i].store_records);
    const std::string registry =
        arm_stem(out_prefix, arms[i].name) + ".registry.json";
    if (!write_json(registry, results[i].registry.to_json())) return 1;
    std::printf("%-10s %s: metrics registry\n", arms[i].name.c_str(),
                registry.c_str());
  }
  return 0;
}

// The quarantine round trip: a 150-connection chaos sweep with invariant
// checking on, then every quarantined connection is shown (summary,
// flight-recorder tail, culprit episode), triaged against another arm
// (CRN makes the first divergent record the first decision this arm made
// differently), and replayed in isolation, which must reproduce it. By
// default connection 7 records one synthetic violation on its third ACK;
// with `inject` off the sweep must quarantine nothing. Exits 1 when a
// check fails. With `out_prefix` each tail is also written as Perfetto
// JSON to PREFIX.<arm>.conn<ID>.trace.json.
int cmd_replay(bool inject, const std::string& out_prefix) {
  workload::WebWorkload base;
  exp::ChaosSpec spec = exp::ChaosSpec::everything();
  exp::ChaosPopulation pop(base, spec.profile);

  exp::RunOptions opts;
  opts.connections = 150;
  opts.seed = 7;
  opts.check_invariants = true;
  opts.threads = 0;  // parallel sweep: byte-identical to serial
  opts.scenario = spec.name;
  // Checked runs always carry a flight recorder; size the ring so the
  // injected early-ACK violation is still in the end-of-run tail.
  opts.trace = true;
  opts.trace_ring_records = 1u << 16;
  opts.trace_tail_records = 1u << 16;
  if (inject) {
    opts.inject_violation_connection = 7;
    opts.inject_violation_on_ack = 3;
  }
  const std::vector<exp::ArmConfig> arms = all_arms();

  std::printf("chaos sweep: scenario '%s', %d connections x %zu arms%s\n\n",
              spec.name.c_str(), opts.connections, arms.size(),
              inject ? " (one synthetic violation injected)" : "");
  const std::vector<exp::ArmResult> results = exp::run_arms(pop, arms, opts);
  for (const exp::ArmResult& r : results) {
    std::printf("arm %-10s acks checked %-8llu violations %-4llu "
                "quarantined %zu\n",
                r.name.c_str(), (unsigned long long)r.acks_checked,
                (unsigned long long)r.invariant_violations,
                r.quarantined.size());
  }

  int failures = 0;
  bool quarantined = false;
  for (std::size_t a = 0; a < arms.size(); ++a) {
    for (const exp::QuarantineRecord& rec : results[a].quarantined) {
      quarantined = true;
      std::printf("\nquarantined: %s\n", rec.summary().c_str());
      const std::size_t tail = rec.trace_tail.size();
      const std::size_t show = tail < 12 ? tail : std::size_t{12};
      if (tail != 0) {
        std::printf("flight-recorder tail (%zu records, last %zu shown):\n",
                    tail, show);
      }
      for (std::size_t i = tail - show; i < tail; ++i) {
        std::printf("  %s\n", obs::describe(rec.trace_tail[i]).c_str());
      }
      if (tail != 0 && !out_prefix.empty()) {
        const std::string path = arm_stem(out_prefix, arms[a].name) +
                                 ".conn" + std::to_string(rec.connection_id) +
                                 ".trace.json";
        if (!write_json(path, rec.trace_json())) return 1;
        std::printf("wrote %s -- open it at https://ui.perfetto.dev\n",
                    path.c_str());
      }
      const std::string culprit = rec.episode_summary();
      if (culprit.empty()) {
        std::printf("no recovery episode in the captured tail\n");
      } else {
        std::printf("culprit episode:\n%s\n", culprit.c_str());
      }

      const exp::ArmConfig& ref = arms[(a + 1) % arms.size()];
      exp::RunOptions honest = opts;
      honest.inject_violation_connection = -1;
      const obs::DivergencePoint d = obs::first_divergence(
          exp::trace_connection(pop, arms[a], honest, rec.connection_id)
              .records,
          exp::trace_connection(pop, ref, honest, rec.connection_id).records);
      std::printf("%s",
                  obs::explain_divergence(d, arms[a].name, ref.name).c_str());

      const exp::ReplayResult replay = exp::replay(pop, arms[a], opts, rec);
      const bool ok = replay.reproduced(rec);
      std::printf("replay: %zu violation(s), %llu ACKs checked -> %s\n",
                  replay.violations.size(),
                  (unsigned long long)replay.acks_checked,
                  ok ? "reproduced" : "DID NOT REPRODUCE");
      if (!ok) ++failures;
    }
  }

  if (inject && !quarantined) {
    std::printf("\nERROR: injected violation was not quarantined\n");
    return 1;
  }
  if (!inject && quarantined) {
    std::printf("\nERROR: the honest sweep quarantined a connection\n");
    return 1;
  }
  if (failures > 0) {
    std::printf("\n%d quarantined connection(s) failed to replay\n", failures);
    return 1;
  }
  std::printf("\nall quarantined connections replayed deterministically\n");
  return 0;
}

int cmd_table3(const obs::StoreReader& reader) {
  obs::EpisodeTable table;
  std::string err;
  if (!obs::episodes_from_store(reader, obs::QueryFilter{}, &table, &err)) {
    std::fprintf(stderr, "prr_query: %s\n", err.c_str());
    return 1;
  }
  const auto& s = table.stream();
  auto ratio = [](uint64_t a, uint64_t b) {
    return b == 0 ? std::string("-")
                  : util::Table::fmt(static_cast<double>(a) /
                                         static_cast<double>(b),
                                     2);
  };
  auto ratio_pct = [](uint64_t a, uint64_t b) {
    return b == 0 ? std::string("-")
                  : util::Table::fmt_pct(static_cast<double>(a) /
                                         static_cast<double>(b));
  };
  std::printf("arm %s, %zu FR events (%" PRIu64 " undo)\n",
              reader.meta().arm.c_str(), table.total(), s.undo_events);
  util::Table t({"metric", "value"});
  t.add_row({"Fast retransmits / FR event",
             ratio(s.fast_retransmits, table.total())});
  t.add_row({"DSACKs / FR event",
             ratio_pct(s.dsacks_received, table.total())});
  t.add_row({"DSACKs / retransmit",
             ratio_pct(s.dsacks_received, s.retransmits_total)});
  t.add_row({"Lost fast retransmits / FR event",
             ratio_pct(s.lost_fast_retransmits, table.total())});
  t.add_row({"Lost retransmits / retransmit",
             ratio_pct(s.lost_retransmits_detected, s.retransmits_total)});
  std::printf("%s\n", t.to_string().c_str());
  return 0;
}

int cmd_critpath(const obs::StoreReader& reader, int64_t conn) {
  std::string err;
  if (conn >= 0) {
    obs::CriticalPathReport rep;
    if (!obs::critical_path(reader, static_cast<uint64_t>(conn), &rep,
                            &err)) {
      std::fprintf(stderr, "prr_query: %s\n", err.c_str());
      return 1;
    }
    std::printf("%s", obs::describe(rep).c_str());
    return 0;
  }
  obs::CriticalPathReport sum;
  for (uint64_t c : reader.connections()) {
    obs::CriticalPathReport rep;
    if (!obs::critical_path(reader, c, &rep, &err)) {
      std::fprintf(stderr, "prr_query: %s\n", err.c_str());
      return 1;
    }
    sum.merge(rep);
  }
  // describe() leads with "conn N:" — replace that with the real subject.
  std::string text = obs::describe(sum);
  text.erase(0, text.find(':') + 1);
  std::printf("all %zu stored connection(s):%s",
              reader.connections().size(), text.c_str());
  return 0;
}

int cmd_merge(const std::string& out,
              const std::vector<std::string>& inputs) {
  std::string err;
  if (!obs::merge_store_files(inputs, out, &err)) {
    std::fprintf(stderr, "prr_query: merge failed: %s\n", err.c_str());
    return 1;
  }
  std::printf("merged %zu store(s) into %s\n", inputs.size(), out.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];

  // --- flag parsing (shared across subcommands) ---
  std::string store_path, out_file, capture = "all", pcap_path;
  std::string field_name, group_name, type_name, workload_name = "web";
  const bool sweep = cmd == "sweep";
  std::vector<exp::ArmConfig> arms =
      sweep ? all_arms() : std::vector{exp::ArmConfig::prr_arm()};
  std::vector<exp::ArmConfig> arms_b = {exp::ArmConfig::rfc3517_arm()};
  std::vector<std::string> positional;
  std::vector<std::string> flags;  // every flag given, checked below
  int64_t conn = -1;
  uint64_t limit = 0;
  int64_t bucket_ms = 1000;
  obs::QueryFilter filter;
  bool verify = true, as_json = false, chaos = false, csv = false;
  bool inject = true;
  exp::RunOptions opts;
  opts.threads = 0;  // parallel sweep: byte-identical to serial

  for (int i = 2; i < argc; ++i) {
    auto need = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag);
        return nullptr;
      }
      return argv[++i];
    };
    const char* a = argv[i];
    const char* v = nullptr;
    if (a[0] == '-') flags.push_back(a);
    if (std::strcmp(a, "--no-verify") == 0) {
      verify = false;
    } else if (std::strcmp(a, "--json") == 0) {
      as_json = true;
    } else if (std::strcmp(a, "--chaos") == 0) {
      chaos = true;
    } else if (std::strcmp(a, "--csv") == 0) {
      csv = true;
    } else if (std::strcmp(a, "--no-inject") == 0) {
      inject = false;
    } else if (std::strcmp(a, "--sampled-only") == 0) {
      filter.include_full = false;
    } else if (std::strcmp(a, "--full-only") == 0) {
      filter.include_sampled = false;
    } else if (std::strcmp(a, "--conn") == 0) {
      if (!(v = need(a)) || !util::parse_flag(a, v, conn, int64_t{0})) return 2;
    } else if (std::strcmp(a, "--limit") == 0) {
      if (!(v = need(a)) || !util::parse_flag(a, v, limit)) return 2;
    } else if (std::strcmp(a, "--conn-min") == 0) {
      if (!(v = need(a)) || !util::parse_flag(a, v, filter.conn_min)) return 2;
    } else if (std::strcmp(a, "--conn-max") == 0) {
      if (!(v = need(a)) || !util::parse_flag(a, v, filter.conn_max)) return 2;
    } else if (std::strcmp(a, "--field") == 0) {
      if (!(v = need(a))) return 2;
      field_name = v;
    } else if (std::strcmp(a, "--type") == 0) {
      if (!(v = need(a))) return 2;
      type_name = v;
    } else if (std::strcmp(a, "--group") == 0) {
      if (!(v = need(a))) return 2;
      group_name = v;
    } else if (std::strcmp(a, "--bucket-ms") == 0) {
      if (!(v = need(a)) ||
          !util::parse_flag(a, v, bucket_ms, int64_t{1}, obs::kMaxBucketMs)) {
        return 2;
      }
    } else if (std::strcmp(a, "--out") == 0) {
      if (!(v = need(a))) return 2;
      out_file = v;
    } else if (std::strcmp(a, "--pcap") == 0) {
      if (!(v = need(a))) return 2;
      pcap_path = v;
    } else if (std::strcmp(a, "--workload") == 0) {
      if (!(v = need(a))) return 2;
      workload_name = v;
      if (workload_name != "web" && workload_name != "video") {
        std::fprintf(stderr, "unknown workload '%s' (want web or video)\n",
                     v);
        return 2;
      }
    } else if (std::strcmp(a, "--capture") == 0) {
      if (!(v = need(a))) return 2;
      capture = v;
    } else if (std::strcmp(a, "--arm") == 0) {
      if (!(v = need(a)) || (arms = parse_arms(v, sweep)).empty()) return 2;
    } else if (std::strcmp(a, "--arm-b") == 0) {
      if (!(v = need(a)) || (arms_b = parse_arms(v, false)).empty()) return 2;
    } else if (std::strcmp(a, "--connections") == 0) {
      if (!(v = need(a)) || !util::parse_flag(a, v, opts.connections, 0)) {
        return 2;
      }
    } else if (std::strcmp(a, "--first") == 0) {
      if (!(v = need(a)) || !util::parse_flag(a, v, opts.first_connection)) {
        return 2;
      }
    } else if (std::strcmp(a, "--seed") == 0) {
      if (!(v = need(a)) || !util::parse_flag(a, v, opts.seed)) return 2;
    } else if (std::strcmp(a, "--threads") == 0) {
      if (!(v = need(a)) || !util::parse_flag(a, v, opts.threads, 0)) return 2;
    } else if (a[0] == '-') {
      std::fprintf(stderr, "unknown option '%s'\n", a);
      return usage();
    } else {
      positional.push_back(a);
    }
  }

  // A flag the command does not read is refused, never ignored.
  const char* reads = flags_read(
      cmd, sweep ? !out_file.empty() : !positional.empty(), conn >= 0);
  if (reads == nullptr) return usage();
  const std::string allowed = std::string(" ") + reads + " ";
  for (const std::string& f : flags) {
    if (allowed.find(" " + f + " ") == std::string::npos) {
      std::fprintf(stderr, "%s does not take %s%s\n", cmd.c_str(), f.c_str(),
                   sweep && f == "--capture" ? " without --out" : "");
      return 2;
    }
  }

  if (cmd == "scenario") {
    const std::string fig = positional.empty() ? "fig2" : positional[0];
    if (positional.size() > 1 ||
        (fig != "fig2" && fig != "fig3" && fig != "fig4")) {
      std::fprintf(stderr, "scenario takes one of fig2, fig3, fig4\n");
      return usage();
    }
    if (csv && !pcap_path.empty()) {
      std::fprintf(stderr, "scenario takes --csv or --pcap, not both\n");
      return usage();
    }
    return cmd_scenario(fig, arms[0], csv, pcap_path, out_file);
  }
  if ((sweep || cmd == "replay") && !positional.empty()) {
    std::fprintf(stderr, "%s takes no positional argument ('%s')\n",
                 cmd.c_str(), positional[0].c_str());
    return usage();
  }
  if (cmd == "replay") return cmd_replay(inject, out_file);

  // The population the sweep and the live views draw from: DC1 Web or
  // DC2 video, optionally under the chaos fault profile.
  workload::WebWorkload web;
  workload::VideoWorkload video;
  const bool is_video = workload_name == "video";
  const workload::Population& base =
      is_video ? static_cast<const workload::Population&>(video) : web;
  if (sweep) {
    std::optional<exp::ChaosPopulation> chaos_pop;
    const workload::Population* pop = &base;
    // The store meta names the workload: "video", "video/chaos/everything";
    // web stores keep the scenario they always had ("", "chaos/everything").
    if (is_video) opts.scenario = "video";
    if (chaos) {
      exp::ChaosSpec spec = exp::ChaosSpec::everything();
      opts.scenario = (is_video ? "video/chaos/" : "chaos/") + spec.name;
      opts.check_invariants = true;
      chaos_pop.emplace(base, std::move(spec.profile));
      pop = &*chaos_pop;
    }
    opts.store_path = out_file;
    opts.capture = capture;
    return cmd_sweep(*pop, arms, opts, out_file);
  }

  if (cmd == "merge") {
    if (positional.size() < 2) {
      std::fprintf(stderr, "merge needs OUT and at least one IN\n");
      return usage();
    }
    return cmd_merge(positional[0],
                     {positional.begin() + 1, positional.end()});
  }

  // The live views re-run one connection of the sweep.
  if (cmd == "diff" || (cmd == "episodes" && positional.empty())) {
    if (!positional.empty()) {
      std::fprintf(stderr, "diff re-runs live and takes no STORE\n");
      return usage();
    }
    if (conn < 0) {
      std::fprintf(stderr, "%s requires --conn ID%s\n", cmd.c_str(),
                   cmd == "diff" ? "" : " or a STORE path");
      return usage();
    }
    const auto id = static_cast<uint64_t>(conn);
    if (cmd == "episodes") return cmd_conn_episodes(base, arms[0], opts, id);
    return cmd_diff(base, arms[0], arms_b[0], opts, id, out_file);
  }

  // All remaining commands read one store.
  if (positional.empty()) {
    std::fprintf(stderr, "%s requires a STORE path\n", cmd.c_str());
    return usage();
  }
  store_path = positional[0];
  obs::StoreReader reader;
  if (!open_store(store_path, verify, &reader)) return 1;

  obs::TraceType type = obs::TraceType::kAck;
  if (!type_name.empty()) {
    if (!obs::parse_trace_type(type_name, &type)) {
      std::fprintf(stderr, "unknown record type '%s'\n", type_name.c_str());
      return 2;
    }
    filter.set_only_type(type);
  }

  if (cmd == "info") return cmd_info(reader, store_path);
  if (cmd == "records") return cmd_records(reader, conn, limit, out_file);
  if (cmd == "agg") {
    obs::AggregateQuery q;
    q.filter = filter;
    q.bucket_ns = bucket_ms * 1'000'000;
    if (group_name == "conn") {
      q.group = obs::GroupKey::kConn;
    } else if (group_name == "type") {
      q.group = obs::GroupKey::kType;
    } else if (group_name == "time") {
      q.group = obs::GroupKey::kTimeBucket;
    } else if (!group_name.empty()) {
      std::fprintf(stderr, "unknown group '%s' (want conn|type|time)\n",
                   group_name.c_str());
      return 2;
    }
    std::string err;
    if (field_name.empty()) field_name = "at_ns";
    if (!obs::parse_field(type, field_name, &q.field, &err)) {
      std::fprintf(stderr, "prr_query: %s\n", err.c_str());
      return 2;
    }
    return cmd_agg(reader, q, out_file);
  }
  if (cmd == "series") {
    if (conn < 0) {
      std::fprintf(stderr, "series requires --conn ID\n");
      return usage();
    }
    obs::QueryField field;
    std::string err;
    if (field_name.empty()) field_name = "cwnd";
    if (!obs::parse_field(type, field_name, &field, &err)) {
      std::fprintf(stderr, "prr_query: %s\n", err.c_str());
      return 2;
    }
    return cmd_series(reader, static_cast<uint64_t>(conn), type, field);
  }
  if (cmd == "episodes") {
    if (conn >= 0) {
      return cmd_conn_episodes(reader, static_cast<uint64_t>(conn));
    }
    return cmd_episodes(reader, as_json, out_file);
  }
  if (cmd == "table3") return cmd_table3(reader);
  if (cmd == "critpath") return cmd_critpath(reader, conn);
  return usage();
}
