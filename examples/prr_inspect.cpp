// prr_inspect: the episode-analytics CLI (DESIGN.md §9). Three views of
// the same machinery:
//
//   prr_inspect episodes [--connections N] [--seed S]
//       Run the standard 3-arm web sweep and print each arm's episode
//       table: counts, exit breakdown, stream counters, log2-histogram
//       percentiles. This is Tables 3/5/6/7 viewed as one object.
//
//   prr_inspect dump --conn ID [--arm NAME] [--connections N] [--seed S]
//       Re-run one connection in isolation under one arm and print every
//       recovery episode with its per-ACK ledger: DeliveredData, sndcnt,
//       pipe vs ssthresh, the PRR internals, the exit, and the first
//       post-recovery cwnd samples.
//
//   prr_inspect diff --conn ID [--arm NAME] [--arm-b NAME] [...]
//       Run the SAME connection under two arms. Common random numbers
//       make the sample paths identical, so the streams match record for
//       record until the first divergent sender decision; print that
//       decision with context and write a paired Perfetto trace
//       (prr_diff_connID.json, arm A = pid 1, arm B = pid 2) with FIRST
//       DIVERGENCE markers. Drop it into https://ui.perfetto.dev.
//
// `episodes` and `dump` also take --store FILE (a .prrstore written by a
// captured sweep, DESIGN.md §14): the same analyses run offline from the
// persisted records — no re-simulation.
//
// Arms: prr (default), rfc3517, linux. Defaults: 2000 connections,
// seed 42 — matching exp::RunOptions, so episode counts line up with
// the other examples out of the box.
#include <cctype>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "exp/experiment.h"
#include "obs/episodes.h"
#include "obs/flight_recorder.h"
#include "obs/query.h"
#include "obs/store/store_reader.h"
#include "obs/trace_diff.h"
#include "util/artifacts.h"
#include "util/parse_number.h"
#include "workload/web_workload.h"

using namespace prr;

namespace {

int usage() {
  std::printf(
      "usage: prr_inspect <episodes|dump|diff> [options]\n"
      "  episodes                 per-arm episode tables for the web sweep\n"
      "  dump --conn ID           one connection's episodes + ACK ledgers\n"
      "  diff --conn ID           first divergent decision between two arms\n"
      "options:\n"
      "  --store FILE             read a .prrstore instead of re-running\n"
      "                           (episodes and dump only)\n"
      "  --arm NAME               prr | rfc3517 | linux   (default prr)\n"
      "  --arm-b NAME             second arm for diff     (default rfc3517)\n"
      "  --conn ID                connection id for dump/diff\n"
      "  --connections N          sweep size              (default 2000)\n"
      "  --first ID               first connection id     (default 0)\n"
      "  --seed S                 experiment seed         (default 42)\n");
  return 2;
}

// Accepts both the CLI short names and the arms' display names ("PRR",
// "RFC 3517", "Linux"): case-insensitive, spaces/underscores/hyphens
// ignored.
bool parse_arm(const char* name, exp::ArmConfig* out) {
  std::string key;
  for (const char* p = name; *p != '\0'; ++p) {
    if (*p == ' ' || *p == '_' || *p == '-') continue;
    key.push_back(static_cast<char>(
        std::tolower(static_cast<unsigned char>(*p))));
  }
  if (key == "prr") {
    *out = exp::ArmConfig::prr_arm();
  } else if (key == "rfc3517") {
    *out = exp::ArmConfig::rfc3517_arm();
  } else if (key == "linux") {
    *out = exp::ArmConfig::linux_arm();
  } else {
    std::printf("unknown arm '%s' (want prr, rfc3517 or linux)\n", name);
    return false;
  }
  return true;
}

// --- store-backed views (offline: no sweep, no tracing requirement) ---

int cmd_episodes_store(const obs::StoreReader& reader) {
  std::printf("store: arm %s, seed %llu, policy %s\n\n",
              reader.meta().arm.c_str(),
              (unsigned long long)reader.meta().seed,
              reader.meta().policy.c_str());
  obs::EpisodeTable table;
  std::string err;
  if (!obs::episodes_from_store(reader, obs::QueryFilter{}, &table, &err)) {
    std::printf("store decode failed: %s\n", err.c_str());
    return 1;
  }
  std::printf("==== arm %s (from store) ====\n%s\n",
              reader.meta().arm.c_str(), table.summary_string().c_str());
  return 0;
}

int cmd_dump_store(const obs::StoreReader& reader, uint64_t conn) {
  std::printf("connection %llu from store (arm %s, seed %llu)\n",
              (unsigned long long)conn, reader.meta().arm.c_str(),
              (unsigned long long)reader.meta().seed);
  std::vector<obs::TraceRecord> records;
  if (!reader.read_connection(conn, &records)) {
    std::printf("store decode failed for conn %llu\n",
                (unsigned long long)conn);
    return 1;
  }
  if (records.empty()) {
    std::printf("connection %llu is not in this store — the capture "
                "policy (%s) did not keep it. Try prr_query info.\n",
                (unsigned long long)conn, reader.meta().policy.c_str());
    return 0;
  }
  obs::EpisodeBuilder builder(obs::EpisodeBuilder::Options{
      /*keep_ledgers=*/true});
  for (const obs::TraceRecord& r : records) builder.on_record(r);
  builder.finish();
  std::printf("%zu stored records, %zu episode(s)\n\n", records.size(),
              builder.episodes().size());
  if (builder.episodes().empty()) {
    std::printf("no recovery episodes in the stored slice.\n");
    return 0;
  }
  for (std::size_t i = 0; i < builder.episodes().size(); ++i) {
    std::printf("---- episode %zu/%zu ----\n%s\n", i + 1,
                builder.episodes().size(),
                obs::describe(builder.episodes()[i]).c_str());
  }
  return 0;
}

int cmd_episodes(const workload::Population& pop,
                 const exp::RunOptions& opts) {
  const std::vector<exp::ArmConfig> arms = {exp::ArmConfig::prr_arm(),
                                            exp::ArmConfig::rfc3517_arm(),
                                            exp::ArmConfig::linux_arm()};
  std::printf("web sweep: ids [%llu, %llu), seed %llu, 3 arms\n\n",
              (unsigned long long)opts.first_connection,
              (unsigned long long)(opts.first_connection +
                                   (uint64_t)opts.connections),
              (unsigned long long)opts.seed);
  const auto results = exp::run_arms(pop, arms, opts);
  for (const auto& r : results) {
    std::printf("==== arm %s ====\n%s\n", r.name.c_str(),
                r.episodes.summary_string().c_str());
  }
  return 0;
}

int cmd_dump(const workload::Population& pop, const exp::RunOptions& opts,
             const exp::ArmConfig& arm, uint64_t conn) {
  std::printf("connection %llu under arm %s (seed %llu)\n",
              (unsigned long long)conn, arm.name.c_str(),
              (unsigned long long)opts.seed);
  const exp::TracedConnection t =
      exp::trace_connection(pop, arm, opts, conn);
  std::printf("%zu trace records, %zu episode(s)%s%s\n\n",
              t.records.size(), t.episodes.size(),
              t.aborted ? ", ABORTED" : "",
              t.all_acked ? ", fully acked" : "");
  if (t.episodes.empty()) {
    std::printf("no recovery episodes: this connection never entered "
                "fast recovery. Try another id.\n");
    return 0;
  }
  for (std::size_t i = 0; i < t.episodes.size(); ++i) {
    std::printf("---- episode %zu/%zu ----\n%s\n", i + 1,
                t.episodes.size(), obs::describe(t.episodes[i]).c_str());
  }
  return 0;
}

int cmd_diff(const workload::Population& pop, const exp::RunOptions& opts,
             const exp::ArmConfig& arm_a, const exp::ArmConfig& arm_b,
             uint64_t conn) {
  std::printf("connection %llu: %s vs %s (seed %llu, CRN-aligned)\n\n",
              (unsigned long long)conn, arm_a.name.c_str(),
              arm_b.name.c_str(), (unsigned long long)opts.seed);
  const exp::TracedConnection a =
      exp::trace_connection(pop, arm_a, opts, conn);
  const exp::TracedConnection b =
      exp::trace_connection(pop, arm_b, opts, conn);
  std::printf("%-10s %zu records, %zu episode(s)\n", arm_a.name.c_str(),
              a.records.size(), a.episodes.size());
  std::printf("%-10s %zu records, %zu episode(s)\n\n", arm_b.name.c_str(),
              b.records.size(), b.episodes.size());

  const obs::DivergencePoint d =
      obs::first_divergence(a.records, b.records);
  std::printf("%s\n",
              obs::explain_divergence(d, arm_a.name, arm_b.name).c_str());

  char name[64];
  std::snprintf(name, sizeof(name), "prr_diff_conn%llu.json",
                (unsigned long long)conn);
  const std::string path = util::artifact_path(name);
  if (std::FILE* f = std::fopen(path.c_str(), "w")) {
    const std::string json =
        obs::perfetto_diff_json(a.records, b.records, arm_a.name,
                                arm_b.name);
    bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
    ok = std::fclose(f) == 0 && ok;
    if (ok) {
      std::printf("wrote %s -- open it at https://ui.perfetto.dev "
                  "(%s = pid 1, %s = pid 2)\n",
                  path.c_str(), arm_a.name.c_str(), arm_b.name.c_str());
    } else {
      std::printf("short write to %s\n", path.c_str());
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  std::string store_path;
  exp::ArmConfig arm_a = exp::ArmConfig::prr_arm();
  exp::ArmConfig arm_b = exp::ArmConfig::rfc3517_arm();
  int64_t conn = -1;
  exp::RunOptions opts;
  opts.threads = 0;  // parallel sweep: byte-identical to serial
  opts.collect_episodes = true;

  for (int i = 2; i < argc; ++i) {
    auto need = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::printf("%s needs a value\n", flag);
        return nullptr;
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--store") == 0) {
      const char* v = need("--store");
      if (!v) return 2;
      store_path = v;
    } else if (std::strcmp(argv[i], "--arm") == 0) {
      const char* v = need("--arm");
      if (!v || !parse_arm(v, &arm_a)) return 2;
    } else if (std::strcmp(argv[i], "--arm-b") == 0) {
      const char* v = need("--arm-b");
      if (!v || !parse_arm(v, &arm_b)) return 2;
    } else if (std::strcmp(argv[i], "--conn") == 0) {
      const char* v = need("--conn");
      if (!v || !util::parse_flag("--conn", v, conn, int64_t{0})) return 2;
    } else if (std::strcmp(argv[i], "--connections") == 0) {
      const char* v = need("--connections");
      if (!v || !util::parse_flag("--connections", v, opts.connections, 0)) {
        return 2;
      }
    } else if (std::strcmp(argv[i], "--first") == 0) {
      const char* v = need("--first");
      if (!v || !util::parse_flag("--first", v, opts.first_connection)) {
        return 2;
      }
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      const char* v = need("--seed");
      if (!v || !util::parse_flag("--seed", v, opts.seed)) return 2;
    } else {
      std::printf("unknown option '%s'\n", argv[i]);
      return usage();
    }
  }

  // Store-backed paths first: they need no sweep (records were captured
  // by whoever wrote the store).
  if (!store_path.empty()) {
    if (cmd == "diff") {
      std::printf("diff re-runs two arms live and cannot use --store\n");
      return 2;
    }
    obs::StoreReader reader;
    std::string err;
    if (!obs::StoreReader::open(store_path, &reader, &err)) {
      std::printf("prr_inspect: %s\n", err.c_str());
      return 1;
    }
    if (cmd == "episodes") return cmd_episodes_store(reader);
    if (cmd == "dump") {
      if (conn < 0) {
        std::printf("dump requires --conn ID\n");
        return usage();
      }
      return cmd_dump_store(reader, static_cast<uint64_t>(conn));
    }
    return usage();
  }

  workload::WebWorkload pop;

  if (cmd == "episodes") return cmd_episodes(pop, opts);
  if (cmd == "dump" || cmd == "diff") {
    if (conn < 0) {
      std::printf("%s requires --conn ID\n", cmd.c_str());
      return usage();
    }
    if (cmd == "dump") {
      return cmd_dump(pop, opts, arm_a, static_cast<uint64_t>(conn));
    }
    return cmd_diff(pop, opts, arm_a, arm_b, static_cast<uint64_t>(conn));
  }
  return usage();
}
