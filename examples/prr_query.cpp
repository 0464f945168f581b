// prr_query: the inspection CLI (DESIGN.md §9, §14.4). Store commands
// work offline from .prrstore files — the paper's own workflow, where
// tables are mined from persisted traces of production flows rather
// than recomputed; `episodes --conn` without a STORE and `diff` re-run
// one connection live.
//
//   prr_query sweep --out PREFIX [...]      run a sweep with capture on,
//                                           writing one store per arm
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
// A flag the command does not read exits 2 and names the flag.
// Determinism: every byte printed (and every store written) is a pure
// function of the input store bytes, or of (--seed, --conn, arm) live.
#include <cctype>
#include <cinttypes>
#include <cstdio>
#include <cstring>
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
#include "workload/web_workload.h"

using namespace prr;

namespace {

int usage() {
  std::printf(
      "usage: prr_query <command> [options]\n"
      "  sweep --out PREFIX       run a web sweep with capture on; writes\n"
      "                           PREFIX.<arm>.prrstore per arm\n"
      "    --capture SPEC         all | none | sample=N | full=TRIG|TRIG...\n"
      "                           | recovery_ms>=X | retx>=N   (default all)\n"
      "    --arm NAME             prr | rfc3517 | linux | all  (default all)\n"
      "    --connections N --first ID --seed S --threads T --chaos\n"
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
      "                           ledgers (no STORE: live, --arm --seed)\n"
      "  diff --conn ID           first divergent decision, re-run live under\n"
      "                           --arm and --arm-b (default prr, rfc3517);\n"
      "                           --seed S, --out F (paired Perfetto JSON)\n"
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
// ignored; "all" (the three arms) only where `allow_all`. Empty on an
// unknown name.
std::vector<exp::ArmConfig> parse_arms(const char* name, bool allow_all) {
  std::string key;
  for (const char* p = name; *p != '\0'; ++p) {
    if (*p == ' ' || *p == '_' || *p == '-') continue;
    key.push_back(static_cast<char>(
        std::tolower(static_cast<unsigned char>(*p))));
  }
  if (key == "prr") return {exp::ArmConfig::prr_arm()};
  if (key == "rfc3517") return {exp::ArmConfig::rfc3517_arm()};
  if (key == "linux") return {exp::ArmConfig::linux_arm()};
  if (key == "all" && allow_all) return all_arms();
  std::fprintf(stderr, "unknown arm '%s' (want prr, rfc3517, linux%s)\n",
               name, allow_all ? " or all" : "");
  return {};
}

// The flags each command reads, space-separated; null for an unknown
// command. Without a STORE, `episodes` is the live view; with one, its
// --conn view takes neither --json nor --out.
const char* flags_read(const std::string& cmd, bool has_store,
                       bool per_conn) {
  if (cmd == "sweep") {
    return "--out --capture --arm --connections --first --seed --threads "
           "--chaos";
  }
  if (cmd == "merge") return "";
  if (cmd == "diff") return "--conn --arm --arm-b --seed --out";
  if (cmd == "episodes" && !has_store) return "--conn --arm --seed";
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
      !obs::checked_write_json(out_file, obs::perfetto_trace_json(records))) {
    std::fprintf(stderr, "prr_query: short write to %s\n",
                 out_file.c_str());
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
  if (!out_file.empty() && !obs::checked_write_json(out_file, json)) {
    std::fprintf(stderr, "prr_query: short write to %s\n",
                 out_file.c_str());
    return 1;
  }
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
  if (!out_file.empty() &&
      !obs::checked_write_json(out_file, table.to_json())) {
    std::fprintf(stderr, "prr_query: short write to %s\n",
                 out_file.c_str());
    return 1;
  }
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

// The same view re-run live: the connection runs again in isolation with
// every record kept (trace_connection), so nothing is lost to the ring.
int cmd_conn_episodes(const exp::ArmConfig& arm, const exp::RunOptions& opts,
                      uint64_t conn) {
  std::printf("connection %" PRIu64 " under arm %s (seed %" PRIu64 ")\n",
              conn, arm.name.c_str(), opts.seed);
  workload::WebWorkload pop;
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
int cmd_diff(const exp::ArmConfig& arm_a, const exp::ArmConfig& arm_b,
             const exp::RunOptions& opts, uint64_t conn,
             const std::string& out_file) {
  std::printf("connection %" PRIu64 ": %s vs %s (seed %" PRIu64
              ", CRN-aligned)\n\n",
              conn, arm_a.name.c_str(), arm_b.name.c_str(), opts.seed);
  workload::WebWorkload pop;
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
  if (!obs::checked_write_json(
          out_file, obs::perfetto_diff_json(a.records, b.records,
                                            arm_a.name, arm_b.name))) {
    std::fprintf(stderr, "prr_query: short write to %s\n",
                 out_file.c_str());
    return 1;
  }
  std::printf("wrote %s -- open it at https://ui.perfetto.dev "
              "(%s = pid 1, %s = pid 2)\n",
              out_file.c_str(), arm_a.name.c_str(), arm_b.name.c_str());
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
  std::string store_path, out_file, capture = "all";
  std::string field_name, group_name, type_name;
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
  bool verify = true, as_json = false, chaos = false;
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
  const char* reads = flags_read(cmd, !positional.empty(), conn >= 0);
  if (reads == nullptr) return usage();
  const std::string allowed = std::string(" ") + reads + " ";
  for (const std::string& f : flags) {
    if (allowed.find(" " + f + " ") == std::string::npos) {
      std::fprintf(stderr, "%s does not take %s\n", cmd.c_str(), f.c_str());
      return 2;
    }
  }

  if (sweep) {
    if (out_file.empty()) {
      std::fprintf(stderr, "sweep requires --out PREFIX\n");
      return usage();
    }
    opts.store_path = out_file;
    opts.capture = capture;
    workload::WebWorkload base;
    std::optional<exp::ChaosPopulation> chaos_pop;
    const workload::Population* pop = &base;
    if (chaos) {
      exp::ChaosSpec spec = exp::ChaosSpec::everything();
      opts.scenario = "chaos/" + spec.name;
      opts.check_invariants = true;
      chaos_pop.emplace(base, std::move(spec.profile));
      pop = &*chaos_pop;
    }
    const auto results = exp::run_arms(*pop, arms, opts);
    // Summarize from the writers' own accounting (carried on ArmResult):
    // reopening the files would read every kept byte once more to check
    // its digest, for counts the writers already have.
    for (std::size_t i = 0; i < results.size(); ++i) {
      const std::string path =
          obs::store_path_for_arm(out_file, arms[i].name);
      std::printf("%-10s %s: %" PRIu64 " conns, %" PRIu64 " records\n",
                  arms[i].name.c_str(), path.c_str(),
                  results[i].store_connections, results[i].store_records);
    }
    return 0;
  }

  if (cmd == "merge") {
    if (positional.size() < 2) {
      std::fprintf(stderr, "merge needs OUT and at least one IN\n");
      return usage();
    }
    return cmd_merge(positional[0],
                     {positional.begin() + 1, positional.end()});
  }

  // The live views re-run one connection of the web sweep.
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
    if (cmd == "episodes") return cmd_conn_episodes(arms[0], opts, id);
    return cmd_diff(arms[0], arms_b[0], opts, id, out_file);
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
