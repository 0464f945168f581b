// Wall-clock scaling of the parallel experiment harness: a fixed
// table1-style sweep (Web population, the paper's standard three arms)
// run at threads in {1, 2, 4, 8}, reported as connections/sec and
// speedup vs the serial run, plus a cross-check that every thread count
// produced identical aggregates. Emits machine-readable BENCH_SWEEP.json
// in the working directory so future PRs have a perf trajectory to
// compare against.
//
// Memory is measured, not asserted: the JSON carries peak RSS and
// bytes-per-connection so the constant-memory claim of the streaming
// fold (DESIGN.md §11) shows up as a flat curve when SWEEP_CONNECTIONS
// grows.
//
// Fork-per-shard mode (SWEEP_PROCS=P): the same population is split into
// P contiguous connection-id ranges, each run to completion in a forked
// child that writes a digest-checked per-shard JSON; the parent merges
// the shards in ascending-id order and verifies the merged aggregates
// reproduce the single-process run bit for bit. Every connection's
// sample path derives from (seed, id) alone, so process boundaries — like
// thread boundaries — cannot change any aggregate.
//
// Env overrides:
//   SWEEP_CONNECTIONS   population size per arm        (default 2000)
//   SWEEP_THREADS       comma-separated thread counts  (default "1,2,4,8")
//   SWEEP_PROCS         fork-per-shard process count   (default 0 = off)
//   SWEEP_BOUNDED       1 = bounded O(1)-memory stats  (default 0)
//   SWEEP_POOL          0 = disable connection arenas  (default 1)
//   SWEEP_MEM_BUDGET_MB fail if peak RSS exceeds this  (default 0 = off)
//   SWEEP_KEEP_SHARDS   1 = keep per-shard JSON files  (default 0)
//   BENCH_SWEEP_JSON    output path                    (default "BENCH_SWEEP.json")
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "host_fingerprint.h"
#include "util/checked_write.h"
#include "workload/web_workload.h"

using namespace prr;

namespace {

struct Point {
  int threads = 1;
  double seconds = 0;
  double conns_per_sec = 0;
  double speedup = 1.0;
};

std::vector<int> parse_thread_list(const char* spec) {
  std::vector<int> out;
  std::string cur;
  for (const char* p = spec;; ++p) {
    if (*p == ',' || *p == '\0') {
      if (!cur.empty()) out.push_back(std::atoi(cur.c_str()));
      cur.clear();
      if (*p == '\0') break;
    } else {
      cur += *p;
    }
  }
  return out;
}

// The flat integer aggregates of one arm that every thread count, and
// every process split, must reproduce exactly. Plain sums of
// per-connection contributions, so merging shards in ascending-id order
// is associative and exact (no floating point anywhere).
struct ArmAgg {
  uint64_t data_segments_sent = 0;
  uint64_t retransmits_total = 0;
  uint64_t timeouts_total = 0;
  uint64_t workload_bytes = 0;
  uint64_t recovery_count = 0;
  uint64_t latency_count = 0;
  int64_t transmit_time_ns = 0;

  static ArmAgg from(const exp::ArmResult& r) {
    ArmAgg a;
    a.data_segments_sent = r.metrics.data_segments_sent;
    a.retransmits_total = r.metrics.retransmits_total;
    a.timeouts_total = r.metrics.timeouts_total;
    a.workload_bytes = r.total_workload_bytes;
    a.recovery_count = r.recovery_log.count();
    // count() == responses().size() in unbounded mode and stays exact in
    // bounded mode, so the digest is identical across stats modes.
    a.latency_count = r.latency.count();
    a.transmit_time_ns = r.total_network_transmit_time.ns();
    return a;
  }

  void add(const ArmAgg& o) {
    data_segments_sent += o.data_segments_sent;
    retransmits_total += o.retransmits_total;
    timeouts_total += o.timeouts_total;
    workload_bytes += o.workload_bytes;
    recovery_count += o.recovery_count;
    latency_count += o.latency_count;
    transmit_time_ns += o.transmit_time_ns;
  }
};

// Cheap order-sensitive digest of the aggregates that must be thread-
// count (and process-count) invariant.
uint64_t fingerprint(const std::vector<ArmAgg>& aggs) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  for (const auto& a : aggs) {
    mix(a.data_segments_sent);
    mix(a.retransmits_total);
    mix(a.timeouts_total);
    mix(a.workload_bytes);
    mix(a.recovery_count);
    mix(a.latency_count);
    mix(static_cast<uint64_t>(a.transmit_time_ns));
  }
  return h;
}

std::vector<ArmAgg> aggregate(const std::vector<exp::ArmResult>& results) {
  std::vector<ArmAgg> aggs;
  aggs.reserve(results.size());
  for (const auto& r : results) aggs.push_back(ArmAgg::from(r));
  return aggs;
}

// Peak resident set of this process, in bytes (Linux ru_maxrss is KiB).
uint64_t peak_rss_bytes() {
  struct rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
  return static_cast<uint64_t>(ru.ru_maxrss) * 1024ull;
}

// --- fork-per-shard: per-shard JSON format -------------------------------
//
// {"shard": k, "first": lo, "connections": n, "arms": [
//    {"data_segments_sent": ..., ..., "transmit_time_ns": ...}, ...],
//  "self_digest": "0x..."}
//
// self_digest is fingerprint() over the arms array, written by the child
// and recomputed by the parent after parsing — a torn or truncated shard
// file cannot be silently merged.

void write_shard_json(const std::string& path, uint64_t shard,
                      uint64_t first, int connections,
                      const std::vector<ArmAgg>& aggs) {
  std::string body;
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"shard\": %" PRIu64 ", \"first\": %" PRIu64
                ", \"connections\": %d, \"arms\": [\n",
                shard, first, connections);
  body += buf;
  for (std::size_t i = 0; i < aggs.size(); ++i) {
    const ArmAgg& a = aggs[i];
    std::snprintf(buf, sizeof(buf),
                  "  {\"data_segments_sent\": %" PRIu64
                  ", \"retransmits_total\": %" PRIu64
                  ", \"timeouts_total\": %" PRIu64
                  ", \"workload_bytes\": %" PRIu64
                  ", \"recovery_count\": %" PRIu64
                  ", \"latency_count\": %" PRIu64
                  ", \"transmit_time_ns\": %" PRId64 "}%s\n",
                  a.data_segments_sent, a.retransmits_total,
                  a.timeouts_total, a.workload_bytes, a.recovery_count,
                  a.latency_count, a.transmit_time_ns,
                  i + 1 < aggs.size() ? "," : "");
    body += buf;
  }
  std::snprintf(buf, sizeof(buf),
                "], \"self_digest\": \"0x%016" PRIx64 "\"}\n",
                fingerprint(aggs));
  body += buf;
  // The parent's digest check catches torn content, but exit nonzero
  // here too so the failure is attributed to the writer.
  if (!util::checked_write_json(path, body)) _exit(3);
}

std::string slurp(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) return {};
  std::string out;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
}

// Scans for `"key": <uint>` starting at *pos; advances *pos past the
// value. Returns false (leaving *pos alone) if the key is absent.
bool scan_u64(const std::string& s, std::size_t* pos, const char* key,
              uint64_t* out) {
  const std::string needle = std::string("\"") + key + "\":";
  const std::size_t at = s.find(needle, *pos);
  if (at == std::string::npos) return false;
  const char* p = s.c_str() + at + needle.size();
  char* end = nullptr;
  *out = std::strtoull(p, &end, 10);
  if (end == p) return false;
  *pos = static_cast<std::size_t>(end - s.c_str());
  return true;
}

// Parses one shard file back into its arms; returns false on a missing
// field or a self-digest mismatch.
bool parse_shard_json(const std::string& path, std::size_t num_arms,
                      std::vector<ArmAgg>* out) {
  const std::string s = slurp(path);
  if (s.empty()) return false;
  std::size_t pos = 0;
  out->clear();
  for (std::size_t i = 0; i < num_arms; ++i) {
    ArmAgg a;
    uint64_t ns = 0;
    if (!scan_u64(s, &pos, "data_segments_sent", &a.data_segments_sent) ||
        !scan_u64(s, &pos, "retransmits_total", &a.retransmits_total) ||
        !scan_u64(s, &pos, "timeouts_total", &a.timeouts_total) ||
        !scan_u64(s, &pos, "workload_bytes", &a.workload_bytes) ||
        !scan_u64(s, &pos, "recovery_count", &a.recovery_count) ||
        !scan_u64(s, &pos, "latency_count", &a.latency_count) ||
        !scan_u64(s, &pos, "transmit_time_ns", &ns)) {
      return false;
    }
    a.transmit_time_ns = static_cast<int64_t>(ns);
    out->push_back(a);
  }
  const std::size_t at = s.find("\"self_digest\": \"0x");
  if (at == std::string::npos) return false;
  const uint64_t recorded =
      std::strtoull(s.c_str() + at + std::strlen("\"self_digest\": \"0x"),
                    nullptr, 16);
  return recorded == fingerprint(*out);
}

}  // namespace

int main() {
  bench::print_header(
      "Sweep scaling: parallel experiment harness",
      "wall-clock of a fixed table1-style 3-arm sweep at several worker "
      "counts; aggregates are byte-identical at every thread count");

  const char* conn_env = std::getenv("SWEEP_CONNECTIONS");
  const char* threads_env = std::getenv("SWEEP_THREADS");
  const char* procs_env = std::getenv("SWEEP_PROCS");
  const char* bounded_env = std::getenv("SWEEP_BOUNDED");
  const char* pool_env = std::getenv("SWEEP_POOL");
  const char* budget_env = std::getenv("SWEEP_MEM_BUDGET_MB");
  const char* keep_env = std::getenv("SWEEP_KEEP_SHARDS");
  const char* json_env = std::getenv("BENCH_SWEEP_JSON");
  // SWEEP_BATCH=0|1 pins the ACK-train batch delivery mode (DESIGN.md
  // §12) so A/B perf runs can drive both sides through one binary. The
  // default matches RunOptions.
  const char* batch_env = std::getenv("SWEEP_BATCH");
  const int connections = conn_env ? std::atoi(conn_env) : 2000;
  const std::vector<int> thread_counts =
      parse_thread_list(threads_env ? threads_env : "1,2,4,8");
  const int procs = procs_env ? std::atoi(procs_env) : 0;
  const bool bounded = bounded_env && std::atoi(bounded_env) != 0;
  const bool pool = pool_env ? std::atoi(pool_env) != 0 : true;
  const double budget_mb = budget_env ? std::atof(budget_env) : 0.0;
  const bool keep_shards = keep_env && std::atoi(keep_env) != 0;
  const std::string json_path = json_env ? json_env : "BENCH_SWEEP.json";

  workload::WebWorkload pop;
  const std::vector<exp::ArmConfig> arms = bench::three_way_arms();
  exp::RunOptions opts;
  opts.connections = connections;
  opts.seed = 20110501;
  opts.bounded_stats = bounded;
  opts.pool_connections = pool;
  if (batch_env != nullptr) opts.batch_delivery = std::atoi(batch_env) != 0;

  // Parallel speedup numbers are only meaningful when the machine has
  // cores to scale onto; on a 1-core box every thread count serializes
  // and "speedup" is just scheduling noise. The serial conns/sec trend
  // is the figure future PRs should track in that case.
  const bench::HostFingerprint fp = bench::host_fingerprint();
  const unsigned hw = fp.hardware_concurrency;
  const bool speedup_meaningful = hw > 1;
  std::printf("hardware_concurrency=%u%s%s%s\n\n", hw,
              speedup_meaningful
                  ? ""
                  : "  (1 core: speedup columns are noise; track the "
                    "serial conns/sec trend instead)",
              bounded ? "  [bounded stats]" : "",
              pool ? "" : "  [pooling off]");

  std::vector<Point> points;
  uint64_t serial_digest = 0;
  double serial_seconds = 0;
  double serial_conns_per_sec = 0;
  bool digests_match = true;
  for (int threads : thread_counts) {
    opts.threads = threads;
    const auto t0 = std::chrono::steady_clock::now();
    const std::vector<exp::ArmResult> results =
        exp::run_arms(pop, arms, opts);
    const auto t1 = std::chrono::steady_clock::now();

    Point p;
    p.threads = threads;
    p.seconds = std::chrono::duration<double>(t1 - t0).count();
    const double total_conns =
        static_cast<double>(connections) * static_cast<double>(arms.size());
    p.conns_per_sec = p.seconds > 0 ? total_conns / p.seconds : 0;

    const uint64_t digest = fingerprint(aggregate(results));
    if (points.empty()) {
      serial_digest = digest;
      serial_seconds = p.seconds;
    } else if (digest != serial_digest) {
      digests_match = false;
      std::fprintf(stderr,
                   "FAIL: aggregates at threads=%d differ from serial\n",
                   threads);
    }
    if (threads == 1) serial_conns_per_sec = p.conns_per_sec;
    p.speedup = p.seconds > 0 ? serial_seconds / p.seconds : 0;
    points.push_back(p);
    if (speedup_meaningful) {
      std::printf("threads=%-2d  %8.2fs  %9.1f conns/sec  speedup %.2fx\n",
                  threads, p.seconds, p.conns_per_sec, p.speedup);
    } else {
      std::printf("threads=%-2d  %8.2fs  %9.1f conns/sec  speedup n/a\n",
                  threads, p.seconds, p.conns_per_sec);
    }
  }
  if (serial_conns_per_sec == 0 && !points.empty()) {
    serial_conns_per_sec = points.front().conns_per_sec;
  }
  std::printf("\nserial trend: %.1f conns/sec\n", serial_conns_per_sec);

  // --- fork-per-shard pass -----------------------------------------------
  // Children run disjoint id-ranges of the same population and write
  // digest-checked shard JSON; the parent merges in ascending-id order
  // and the merged aggregates must equal the in-process run bit for bit.
  bool fork_merge_identical = true;  // vacuously true when the mode is off
  double procs_seconds = 0;
  if (procs > 0) {
    const auto t0 = std::chrono::steady_clock::now();
    const uint64_t n = static_cast<uint64_t>(connections);
    const uint64_t nprocs =
        std::min<uint64_t>(static_cast<uint64_t>(procs), n);
    std::vector<pid_t> children;
    std::vector<std::string> shard_paths;
    for (uint64_t k = 0; k < nprocs; ++k) {
      const uint64_t lo = n * k / nprocs;
      const uint64_t hi = n * (k + 1) / nprocs;
      const std::string shard_path =
          json_path + ".shard" + std::to_string(k);
      shard_paths.push_back(shard_path);
      const pid_t pid = fork();
      if (pid < 0) {
        std::perror("fork");
        return 1;
      }
      if (pid == 0) {
        // Child: its whole contribution is the shard file.
        exp::RunOptions shard_opts = opts;
        shard_opts.threads = 1;
        shard_opts.first_connection = lo;
        shard_opts.connections = static_cast<int>(hi - lo);
        const std::vector<exp::ArmResult> shard_results =
            exp::run_arms(pop, arms, shard_opts);
        write_shard_json(shard_path, k, lo, shard_opts.connections,
                         aggregate(shard_results));
        _exit(0);
      }
      children.push_back(pid);
    }
    for (pid_t pid : children) {
      int status = 0;
      if (waitpid(pid, &status, 0) < 0 || !WIFEXITED(status) ||
          WEXITSTATUS(status) != 0) {
        std::fprintf(stderr, "FAIL: shard child %d did not exit cleanly\n",
                     static_cast<int>(pid));
        fork_merge_identical = false;
      }
    }
    std::vector<ArmAgg> merged(arms.size());
    for (std::size_t k = 0; k < shard_paths.size(); ++k) {
      std::vector<ArmAgg> shard;
      if (!parse_shard_json(shard_paths[k], arms.size(), &shard)) {
        std::fprintf(stderr,
                     "FAIL: shard %zu failed its self-digest check\n", k);
        fork_merge_identical = false;
        continue;
      }
      for (std::size_t a = 0; a < arms.size(); ++a) merged[a].add(shard[a]);
    }
    if (fork_merge_identical && fingerprint(merged) != serial_digest) {
      std::fprintf(stderr,
                   "FAIL: fork-per-shard merge differs from in-process "
                   "aggregates\n");
      fork_merge_identical = false;
    }
    if (!keep_shards) {
      for (const auto& p : shard_paths) std::remove(p.c_str());
    }
    const auto t1 = std::chrono::steady_clock::now();
    procs_seconds = std::chrono::duration<double>(t1 - t0).count();
    std::printf("procs=%-3d %8.2fs  fork-per-shard merge %s\n",
                static_cast<int>(nprocs), procs_seconds,
                fork_merge_identical ? "identical" : "MISMATCH");
  }

  // --- memory ------------------------------------------------------------
  const uint64_t rss = peak_rss_bytes();
  const double rss_mb = static_cast<double>(rss) / (1024.0 * 1024.0);
  const double total_conns =
      static_cast<double>(connections) * static_cast<double>(arms.size());
  const double bytes_per_conn =
      total_conns > 0 ? static_cast<double>(rss) / total_conns : 0;
  std::printf("peak RSS: %.1f MB  (%.1f B/connection over %d x %zu)\n",
              rss_mb, bytes_per_conn, connections, arms.size());
  bool within_budget = true;
  if (budget_mb > 0 && rss_mb > budget_mb) {
    within_budget = false;
    std::fprintf(stderr,
                 "FAIL: peak RSS %.1f MB exceeds SWEEP_MEM_BUDGET_MB "
                 "%.1f\n",
                 rss_mb, budget_mb);
  }

  // speedup_nulled_reason states, in the artifact itself, why every
  // speedup_vs_serial below is null instead of leaving readers to guess
  // (the historical JSON showed hardware_concurrency: 1 with bare
  // nulls). The machine object is the fingerprint perf_ratchet keys
  // comparisons on.
  std::string body;
  char line[1024];
  std::snprintf(line, sizeof(line),
               "{\n"
               "  \"benchmark\": \"sweep_scaling\",\n"
               "  \"connections\": %d,\n"
               "  \"arms\": %zu,\n"
               "  \"machine\": %s,\n"
               "  \"hardware_concurrency\": %u,\n"
               "  \"speedup_meaningful\": %s,\n"
               "  \"speedup_nulled_reason\": %s,\n"
               "  \"batch_delivery\": %s,\n"
               "  \"bounded_stats\": %s,\n"
               "  \"pool_connections\": %s,\n"
               "  \"serial_conns_per_sec\": %.1f,\n"
               "  \"aggregates_identical\": %s,\n"
               "  \"peak_rss_mb\": %.1f,\n"
               "  \"bytes_per_connection\": %.1f,\n"
               "  \"fork_procs\": %d,\n"
               "  \"fork_merge_identical\": %s,\n"
               "  \"points\": [\n",
               connections, arms.size(),
               bench::host_fingerprint_json(fp).c_str(), hw,
               speedup_meaningful ? "true" : "false",
               speedup_meaningful
                   ? "null"
                   : "\"hardware_concurrency == 1: every thread count "
                     "serializes onto one core, so speedup_vs_serial "
                     "would be scheduling noise, not scaling\"",
               opts.batch_delivery ? "true" : "false",
               bounded ? "true" : "false", pool ? "true" : "false",
               serial_conns_per_sec, digests_match ? "true" : "false",
               rss_mb, bytes_per_conn, procs,
               fork_merge_identical ? "true" : "false");
  body += line;
  for (std::size_t i = 0; i < points.size(); ++i) {
    const Point& p = points[i];
    // On a 1-core machine speedup_vs_serial is emitted as null rather
    // than a number nobody should read as a scaling claim.
    std::snprintf(line, sizeof(line),
                  "    {\"threads\": %d, \"seconds\": %.4f, "
                  "\"conns_per_sec\": %.1f, \"speedup_vs_serial\": ",
                  p.threads, p.seconds, p.conns_per_sec);
    body += line;
    if (speedup_meaningful) {
      std::snprintf(line, sizeof(line), "%.3f}%s\n", p.speedup,
                    i + 1 < points.size() ? "," : "");
    } else {
      std::snprintf(line, sizeof(line), "null}%s\n",
                    i + 1 < points.size() ? "," : "");
    }
    body += line;
  }
  body += "  ]\n}\n";
  if (!util::checked_write_json(json_path, body)) {
    std::fprintf(stderr, "short write to %s\n", json_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", json_path.c_str());
  return (digests_match && fork_merge_identical && within_budget) ? 0 : 1;
}
