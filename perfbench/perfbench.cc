// Benchmark program for the simulator: three closed-loop batch sweeps
// driven through the public exp::run_arm and obs::StoreReader/obs::query
// entry points.
//
//   perfbench --workload web|video|store --seed N --seconds S --trace 0
//   perfbench_traced --workload ... --trace 1
//
// --trace 0 measures the end-to-end metrics with nothing attached to the
// program; --trace 1 (the allocation-counting build) measures the layers
// from the outside. Either way the last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"}, and any failed check
// makes the exit code nonzero. perfbench/run.py builds both binaries and
// is the command BENCHMARK.json names.
#include <malloc.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "host_fingerprint.h"
#include "obs/query.h"
#include "obs/store/store_reader.h"
#include "perfbench.h"
#include "workload/video_workload.h"
#include "workload/web_workload.h"

extern char** environ;

using namespace prr;

namespace perfbench {

namespace {

// Sizes are fixed per workload so every run of one seed does identical
// work; they are large enough that the population mean of a sweep's cost
// is stable from seed to seed.
const WorkloadSpec kWorkloads[] = {
    {"web", /*video=*/false, /*capture_in_sweep=*/false,
     /*disjoint_arms=*/false, /*connections=*/20000, /*serial_chunks=*/20,
     /*capture_connections=*/4000, /*ring_records=*/1u << 14},
    // A video connection costs ~600x a Web one and varies widely, so the
    // arms split a larger population instead of repeating a small one.
    {"video", true, false, true, 400, 20, 100, 1u << 16},
    {"store", false, true, false, 12000, 1, 12000, 1u << 14},
};

// Runs that attach a flight recorder use fresh per-connection objects. A
// pooled arena outlives the recorder of its connection range, and a
// connection that ends with a timer still armed makes the arena's
// teardown write a timer-cancel record into that dead recorder (the video
// population hits it within a few hundred connections).
constexpr bool kPoolWithRecorder = false;

constexpr int kMinRounds = 3;
constexpr int kProbesPerRound = 7;
// Parallel sweep and query time per round, as shares of the round's
// serial sweep time.
constexpr double kParShare = 0.3;
constexpr double kQueryShare = 0.2;

const char kUsage[] =
    "usage: perfbench --workload web|video|store --seed N --seconds S "
    "[--trace 0|1] [--out-dir DIR]\n";

[[noreturn]] void usage_error(const std::string& msg) {
  std::fprintf(stderr, "perfbench: %s\n%s", msg.c_str(), kUsage);
  std::exit(2);
}

// Whole decimal numbers only: no sign, no blanks, no trailing junk, no
// overflow.
bool parse_u64(const char* s, uint64_t* out) {
  if (s == nullptr || *s == '\0') return false;
  uint64_t v = 0;
  for (const char* p = s; *p != '\0'; ++p) {
    if (*p < '0' || *p > '9') return false;
    const uint64_t d = static_cast<uint64_t>(*p - '0');
    if (v > (UINT64_MAX - d) / 10) return false;
    v = v * 10 + d;
  }
  *out = v;
  return true;
}

struct Args {
  std::string workload;
  uint64_t seed = 0;
  uint64_t seconds = 0;
  uint64_t trace = 0;
  std::string out_dir = ".";
  std::string probe;  // internal: "setup" or "memory" child process
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false, have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag != "--workload" && flag != "--seed" && flag != "--seconds" &&
        flag != "--trace" && flag != "--out-dir" && flag != "--probe") {
      usage_error("unknown argument '" + flag + "'");
    }
    if (i + 1 >= argc) usage_error(flag + " needs a value");
    const char* value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
      have_workload = true;
    } else if (flag == "--out-dir") {
      a.out_dir = value;
    } else if (flag == "--probe") {
      a.probe = value;
      if (a.probe != "setup" && a.probe != "memory") {
        usage_error("unknown probe '" + a.probe + "'");
      }
    } else {
      uint64_t v = 0;
      if (!parse_u64(value, &v)) {
        usage_error(flag + " expects a whole number, got '" + value + "'");
      }
      if (flag == "--seed") {
        a.seed = v;
        have_seed = true;
      } else if (flag == "--seconds") {
        if (v < 1 || v > 3600) usage_error("--seconds must be 1..3600");
        a.seconds = v;
        have_seconds = true;
      } else {
        if (v > 1) usage_error("--trace must be 0 or 1");
        a.trace = v;
      }
    }
  }
  if (!have_workload) usage_error("--workload is required");
  if (find_workload(a.workload) == nullptr) {
    usage_error("unknown workload '" + a.workload + "'");
  }
  if (!have_seed) usage_error("--seed is required");
  if (!have_seconds && a.probe.empty()) usage_error("--seconds is required");
#if !PERFBENCH_ALLOC_HOOKS
  if (a.trace == 1) usage_error("--trace 1 needs the perfbench_traced build");
#endif
  return a;
}

// Stops the clock at the first connection of the run: setup_s covers
// everything before it.
class FirstConnectionProbe final : public workload::Population {
 public:
  explicit FirstConnectionProbe(const workload::Population& inner)
      : inner_(inner) {}
  workload::ConnectionSample sample(sim::Rng rng) const override {
    return inner_.sample(rng);
  }
  void sample_into(sim::Rng rng,
                   workload::ConnectionSample& out) const override {
    if (first_ns_ == 0) first_ns_ = now_ns();
    inner_.sample_into(rng, out);
  }
  int64_t first_ns() const { return first_ns_; }

 private:
  const workload::Population& inner_;
  mutable int64_t first_ns_ = 0;
};

// Child side of a setup probe: the same process image as the benchmark,
// set up exactly like a timed sweep, reporting on stdout the monotonic
// time at which its first connection started.
int run_setup_probe(const Bench& b) {
  const std::string store =
      b.spec->capture_in_sweep
          ? b.path("setup." + std::to_string(getpid()) + ".prrstore")
          : std::string();
  exp::RunOptions opts = b.arm_options(0, 1, store);
  opts.connections = 1;
  FirstConnectionProbe probe(*b.pop);
  exp::run_arm(probe, b.arms.front(), opts);
  if (!store.empty()) {
    std::remove(obs::store_path_for_arm(store, b.arms.front().name).c_str());
  }
  std::printf("%" PRId64 "\n", probe.first_ns());
  return probe.first_ns() > 0 ? 0 : 1;
}

// Child side of the memory probe: the serial half of one round (the
// capture run, the serial sweep, one query set) in a process of its own,
// so its peak RSS does not depend on how worker threads interleaved.
int run_memory_probe(const Bench& b) {
  // A fixed mmap threshold: glibc's adaptive one moves with the order of
  // large frees and makes the peak bimodal from run to run.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  const std::string prefix = b.path("memory." + std::to_string(getpid()));
  const std::string& prr_name = b.arms.back().name;
  std::string store_file;
  if (!b.spec->capture_in_sweep) {
    exp::RunOptions opts = b.capture_options();
    opts.store_path = prefix + ".capture.prrstore";
    exp::run_arm(*b.pop, exp::ArmConfig::prr_arm(), opts);
    store_file = obs::store_path_for_arm(opts.store_path, prr_name);
  }
  const std::string store =
      b.spec->capture_in_sweep ? prefix + ".prrstore" : std::string();
  b.sweep(*b.pop, 1, store);
  if (b.spec->capture_in_sweep) {
    store_file = obs::store_path_for_arm(store, prr_name);
  }
  const bool ok = run_query_set(store_file).ok;
  std::remove(store_file.c_str());
  return ok ? 0 : 1;
}

struct Child {
  bool ok = false;
  std::string out;       // its standard output
  int64_t spawned_ns = 0;  // just before the spawn
  double peak_rss_mb = 0;
};

// Runs this binary as `--probe <probe>` for the same workload and seed.
Child spawn_probe(const Args& a, const char* probe) {
  Child c;
  int fds[2];
  if (pipe(fds) != 0) return c;
  std::vector<std::string> args = {
      "/proc/self/exe", "--probe", probe, "--workload", a.workload,
      "--seed", std::to_string(a.seed), "--out-dir", a.out_dir};
  std::vector<char*> argv;
  for (auto& s : args) argv.push_back(s.data());
  argv.push_back(nullptr);
  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_adddup2(&fa, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&fa, fds[0]);
  posix_spawn_file_actions_addclose(&fa, fds[1]);
  pid_t pid = 0;
  c.spawned_ns = now_ns();
  const int rc =
      posix_spawn(&pid, "/proc/self/exe", &fa, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&fa);
  close(fds[1]);
  char buf[256];
  ssize_t n;
  while ((n = read(fds[0], buf, sizeof buf)) > 0) c.out.append(buf, n);
  close(fds[0]);
  if (rc != 0) return c;
  int status = 0;
  struct rusage ru {};
  if (wait4(pid, &status, 0, &ru) != pid) return c;
  c.ok = WIFEXITED(status) && WEXITSTATUS(status) == 0;
  c.peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB
  return c;
}

// Seconds from just before the spawn to the probe's first connection, or
// a negative value when the probe failed.
double setup_seconds(const Args& a) {
  Child c = spawn_probe(a, "setup");
  while (!c.out.empty() && c.out.back() == '\n') c.out.pop_back();
  uint64_t first = 0;
  if (!c.ok || !parse_u64(c.out.c_str(), &first) ||
      static_cast<int64_t>(first) <= c.spawned_ns) {
    return -1;
  }
  return static_cast<double>(static_cast<int64_t>(first) - c.spawned_ns) *
         1e-9;
}

bool files_equal(const std::string& a, const std::string& b) {
  std::FILE* fa = std::fopen(a.c_str(), "rb");
  std::FILE* fb = std::fopen(b.c_str(), "rb");
  bool equal = fa != nullptr && fb != nullptr;
  char ba[1 << 16], bb[1 << 16];
  while (equal) {
    const std::size_t na = std::fread(ba, 1, sizeof ba, fa);
    const std::size_t nb = std::fread(bb, 1, sizeof bb, fb);
    equal = na == nb && std::memcmp(ba, bb, na) == 0;
    if (na == 0) break;
  }
  if (fa != nullptr) std::fclose(fa);
  if (fb != nullptr) std::fclose(fb);
  return equal;
}

double elapsed_s(int64_t since_ns) {
  return static_cast<double>(now_ns() - since_ns) * 1e-9;
}

void print_result(const Tally& tally, const std::vector<Metric>& metrics) {
  std::string line = "{\"correct\": ";
  line += tally.failed() == 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(tally.attempted());
  line += ", \"failed\": " + std::to_string(tally.failed());
  line += ", \"metrics\": {";
  char buf[256];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof buf,
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(),
                  metrics[i].value, metrics[i].unit);
    line += buf;
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

// Fastest time of each unit over its repeats, summed over units. Every
// unit is repeated in every round, rounds spread over the whole run, so
// a slow spell of a shared host costs one repeat of a unit instead of
// shifting the whole run.
// `work` per second of that total; 0 when a unit never completed (the run
// has failed a check then).
double fastest_rate(double work,
                    const std::vector<std::vector<double>>& times) {
  double total = 0;
  for (const auto& repeats : times) {
    if (repeats.empty()) return 0;
    total += *std::min_element(repeats.begin(), repeats.end());
  }
  return work / total;
}

// Rounds of: setup probes, the serial sweep, the parallel sweep, and the
// query set, until --seconds is spent. The serial sweep runs as
// consecutive connection-id ranges (the harness's sharding contract makes
// their merge the full sweep), each range its own timing unit.
std::vector<Metric> run_end_to_end(const Args& a, const Bench& b,
                                   Tally& tally) {
  const int64_t start = now_ns();
  const double budget = static_cast<double>(a.seconds);
  const WorkloadSpec& spec = *b.spec;
  const std::string& prr_name = b.arms.back().name;
  const Child memory = spawn_probe(a, "memory");
  tally.check(memory.ok, "memory probe exits 0");

  // The store workload's capture must not change the simulation: its
  // reference digest comes from the same sweep with capture off. Web and
  // video write their queried store once, untimed, up front.
  uint64_t reference = 0;
  bool have_reference = false;
  std::string store_file;
  uint64_t store_records = 0, store_connections = 0, store_bytes = 0;
  if (spec.capture_in_sweep) {
    const auto results = b.sweep(*b.pop, 1, "");
    tally.count_arms(results, spec.connections);
    reference = digest(results);
    have_reference = true;
  } else {
    const exp::RunOptions opts = b.capture_options();
    std::vector<exp::ArmResult> captured;
    captured.push_back(exp::run_arm(*b.pop, exp::ArmConfig::prr_arm(), opts));
    tally.count_arms(captured, spec.capture_connections);
    const exp::ArmResult& r = captured.front();
    store_file = obs::store_path_for_arm(opts.store_path, r.name);
    store_records = r.store_records;
    store_connections = r.store_connections;
    store_bytes = r.store_payload_bytes;
  }
  auto check_digest = [&](const std::vector<exp::ArmResult>& results,
                          const std::string& what) {
    const uint64_t d = digest(results);
    if (!have_reference) {
      reference = d;
      have_reference = true;
    }
    tally.check(d == reference, what + " aggregate digest");
  };

  const int chunks = spec.serial_chunks;
  const std::string serial_store =
      spec.capture_in_sweep ? b.path("serial.prrstore") : "";
  const std::string par_store =
      spec.capture_in_sweep ? b.path("parallel.prrstore") : "";
  std::vector<double> setups;
  std::vector<std::vector<double>> serial_s(chunks), par_s(1), query_s(1);
  uint64_t query_records = 0, query_digest = 0;
  double round_s = 0;  // the last round's length: stop before overrunning
  for (int round = 0;
       round < kMinRounds || elapsed_s(start) + round_s <= budget; ++round) {
    const int64_t round_begin = now_ns();
    const std::string tag = ", round " + std::to_string(round);
    for (int i = 0; i < kProbesPerRound; ++i) {
      const double s = setup_seconds(a);
      if (tally.check(s > 0, "setup probe exits 0 and reports")) {
        setups.push_back(s);
      }
    }

    const int64_t round_start = now_ns();
    std::vector<exp::ArmResult> merged(b.arms.size());
    for (int c = 0; c < chunks; ++c) {
      const int lo = spec.connections * c / chunks;
      const int count = spec.connections * (c + 1) / chunks - lo;
      const int64_t t0 = now_ns();
      auto results = b.sweep(*b.pop, 1, serial_store, lo, count);
      serial_s[c].push_back(elapsed_s(t0));
      tally.count_arms(results, count);
      for (std::size_t i = 0; i < results.size(); ++i) {
        merged[i].merge(std::move(results[i]));
      }
    }
    check_digest(merged, "serial" + tag);

    // Parallel sweeps get a share of the serial time, at least one.
    const double serial_round_s = elapsed_s(round_start);
    std::vector<exp::ArmResult> par;
    const int64_t p0 = now_ns();
    for (int rep = 0; rep < 1 || elapsed_s(p0) < kParShare * serial_round_s;
         ++rep) {
      const int64_t t0 = now_ns();
      par = b.sweep(*b.pop, b.par_threads, par_store);
      par_s[0].push_back(elapsed_s(t0));
      tally.count_arms(par, spec.connections);
      check_digest(par, "parallel" + tag);
    }

    if (spec.capture_in_sweep) {
      const exp::ArmResult& p = par.front();
      store_file = obs::store_path_for_arm(serial_store, prr_name);
      store_records = p.store_records;
      store_connections = p.store_connections;
      store_bytes = p.store_payload_bytes;
      tally.check(merged.front().store_records == store_records &&
                      merged.front().store_payload_bytes == store_bytes &&
                      files_equal(store_file,
                                  obs::store_path_for_arm(par_store, prr_name)),
                  "serial and parallel store files identical" + tag);
    }

    const double query_budget = kQueryShare * serial_round_s;
    const int64_t q0 = now_ns();
    do {
      const QueryRun q = run_query_set(store_file);
      if (!tally.check(q.ok, "query set decodes" + tag)) break;
      if (query_records == 0) {
        query_records = q.records;
        query_digest = q.result_digest;
      }
      tally.check(q.store_records == store_records &&
                      q.store_connections == store_connections,
                  "StoreReader totals equal ArmResult::store_records and "
                  "store_connections" + tag);
      tally.check(q.result_digest == query_digest,
                  "query results repeat" + tag);
      query_s[0].push_back(q.open_s + q.agg_s + q.episodes_s);
    } while (elapsed_s(q0) < query_budget);
    round_s = elapsed_s(round_begin);
  }
  std::remove(store_file.c_str());
  if (spec.capture_in_sweep) {
    std::remove(obs::store_path_for_arm(par_store, prr_name).c_str());
  }

  std::printf(
      "rounds=%zu parallel_sweeps=%zu query_sets=%zu setup_probes=%zu\n",
      serial_s[0].size(), par_s[0].size(), query_s[0].size(), setups.size());
  const double conn_arms = static_cast<double>(spec.connections) *
                           static_cast<double>(b.arms.size());
  return {
      {"setup_s", median(setups), "s"},
      {"conn_arm_per_s", fastest_rate(conn_arms, serial_s), "conn-arm/s"},
      {"conn_arm_per_s_par", fastest_rate(conn_arms, par_s), "conn-arm/s"},
      {"peak_rss_mb", memory.peak_rss_mb, "MB"},
      {"query_records_per_s",
       fastest_rate(static_cast<double>(query_records), query_s),
       "records/s"},
      {"store_bytes_per_record",
       store_records == 0 ? 0.0
                          : static_cast<double>(store_bytes) /
                                static_cast<double>(store_records),
       "B"},
  };
}

}  // namespace

const WorkloadSpec* find_workload(const std::string& name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

exp::RunOptions Bench::arm_options(std::size_t arm, int threads,
                                   const std::string& store_file) const {
  exp::RunOptions opts;
  opts.connections = spec->connections;
  if (spec->disjoint_arms) {
    opts.first_connection =
        static_cast<uint64_t>(spec->connections) * static_cast<uint64_t>(arm);
  }
  opts.seed = seed;
  opts.threads = threads;
  if (!store_file.empty()) {
    opts.store_path = store_file;
    opts.capture = "all";
    opts.trace_ring_records = spec->ring_records;
    opts.pool_connections = kPoolWithRecorder;
  }
  return opts;
}

std::vector<exp::ArmResult> Bench::sweep(const workload::Population& population,
                                         int threads,
                                         const std::string& store_file, int lo,
                                         int count) const {
  std::vector<exp::ArmResult> results;
  for (std::size_t a = 0; a < arms.size(); ++a) {
    exp::RunOptions opts = arm_options(a, threads, store_file);
    opts.first_connection += static_cast<uint64_t>(lo);
    if (count >= 0) opts.connections = count;
    results.push_back(exp::run_arm(population, arms[a], opts));
  }
  return results;
}

exp::RunOptions Bench::capture_options() const {
  exp::RunOptions opts;
  opts.connections = spec->capture_connections;
  opts.seed = seed;
  opts.store_path = path("capture.prrstore");
  opts.capture = "all";
  opts.trace_ring_records = spec->ring_records;
  opts.pool_connections = kPoolWithRecorder;
  return opts;
}

int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

uint64_t digest(const std::vector<exp::ArmResult>& results) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  for (const exp::ArmResult& r : results) {
    const tcp::Metrics& m = r.metrics;
    for (uint64_t v :
         {m.data_segments_sent, m.bytes_sent, m.retransmits_total,
          m.fast_retransmits, m.timeouts_total, m.fast_recovery_events,
          m.undo_events, m.dsacks_received, r.connections_run,
          r.total_workload_bytes, static_cast<uint64_t>(r.recovery_log.count()),
          r.latency.count(),
          static_cast<uint64_t>(r.total_network_transmit_time.ns()),
          static_cast<uint64_t>(r.total_loss_recovery_time.ns())}) {
      mix(v);
    }
  }
  return h;
}

bool Tally::check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::printf("FAIL: %s\n", what.c_str());
  }
  return ok;
}

void Tally::count_arms(const std::vector<exp::ArmResult>& results,
                       int expected_per_arm) {
  for (const exp::ArmResult& r : results) {
    const uint64_t expected = static_cast<uint64_t>(expected_per_arm);
    attempted_ += expected;
    const uint64_t missing =
        r.connections_run < expected ? expected - r.connections_run : 0;
    failed_ += missing + r.quarantined.size();
    if (missing + r.quarantined.size() > 0) {
      std::printf("FAIL: arm %s: %" PRIu64 " missing, %zu quarantined\n",
                  r.name.c_str(), missing, r.quarantined.size());
    }
  }
}

QueryRun run_query_set(const std::string& store_file) {
  QueryRun q;
  std::string err;
  obs::StoreReader reader;
  int64_t t0 = now_ns();
  if (!obs::StoreReader::open(store_file, &reader, &err)) {
    std::printf("store open failed: %s\n", err.c_str());
    return q;
  }
  q.open_s = static_cast<double>(now_ns() - t0) * 1e-9;
  q.store_records = reader.total_records();
  q.store_connections = reader.connections().size();
  for (const auto& blk : reader.blocks()) {
    if (blk.flags & obs::kBlockTruncated) ++q.truncated_blocks;
  }

  obs::AggregateQuery agg;
  agg.filter.set_only_type(obs::TraceType::kAck);
  agg.group = obs::GroupKey::kConn;
  agg.field = obs::QueryField::kF1;  // ack records: f1 = cwnd
  obs::AggregateResult rows;
  t0 = now_ns();
  if (!obs::run_aggregate(reader, agg, &rows, &err)) {
    std::printf("aggregate failed: %s\n", err.c_str());
    return q;
  }
  q.agg_s = static_cast<double>(now_ns() - t0) * 1e-9;

  obs::EpisodeTable episodes;
  t0 = now_ns();
  if (!obs::episodes_from_store(reader, obs::QueryFilter{}, &episodes,
                                &err)) {
    std::printf("episodes_from_store failed: %s\n", err.c_str());
    return q;
  }
  q.episodes_s = static_cast<double>(now_ns() - t0) * 1e-9;

  q.episodes_json = episodes.to_json();
  uint64_t h = 1469598103934665603ull;
  for (const obs::AggregateRow& row : rows.rows) {
    for (uint64_t v : {row.key, row.count, row.sum, row.min, row.max}) {
      h ^= v;
      h *= 1099511628211ull;
    }
  }
  for (const char c : q.episodes_json) {
    h ^= static_cast<uint8_t>(c);
    h *= 1099511628211ull;
  }
  q.result_digest = h;
  q.records = 2 * q.store_records;  // each full scan decodes every record
  q.ok = true;
  return q;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = parse_args(argc, argv);
  Bench b;
  b.spec = find_workload(args.workload);
  b.seed = args.seed;
  b.out_dir = args.out_dir;
  if (b.spec->video) {
    b.pop = std::make_unique<workload::VideoWorkload>();
  } else {
    b.pop = std::make_unique<workload::WebWorkload>();
  }
  if (b.spec->capture_in_sweep) {
    b.arms = {exp::ArmConfig::prr_arm()};
  } else {
    b.arms = {exp::ArmConfig::linux_arm(), exp::ArmConfig::rfc3517_arm(),
              exp::ArmConfig::prr_arm()};
  }
  const bench::HostFingerprint host = bench::host_fingerprint();
  const unsigned nproc = std::max(1u, host.hardware_concurrency);
  b.par_threads = static_cast<int>(std::min(4u, nproc));

  try {
    if (args.probe == "setup") return run_setup_probe(b);
    if (args.probe == "memory") return run_memory_probe(b);

    std::printf("host: nproc=%u cpu_model=%s threads=%d\n", nproc,
                obs::json_quote(host.cpu_model).c_str(), b.par_threads);
    std::printf("workload=%s seed=%" PRIu64 " seconds=%" PRIu64
                " trace=%" PRIu64 "\n",
                b.spec->name, b.seed, args.seconds, args.trace);
    if (b.par_threads == 1) {
      std::printf("conn_arm_per_s_par: not applicable on a 1-core host "
                  "(measured at threads=1)\n");
    }
    Tally tally;
    std::vector<Metric> metrics;
#if PERFBENCH_ALLOC_HOOKS
    if (args.trace == 1) {
      metrics = run_layers(b, static_cast<double>(args.seconds), tally);
    }
#endif
    if (args.trace == 0) metrics = run_end_to_end(args, b, tally);
    print_result(tally, metrics);
    return tally.failed() == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
