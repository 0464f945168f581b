// memory_ceiling_gate: the sweep engine's flat-memory and fork-merge
// checks (DESIGN.md §11) at one fixed configuration: the Web
// population, the paper's three arms, seed 20110501, 200,000
// connections per arm, bounded stats and pooled arenas.
//
// Check 1, memory: after the in-process run (2 threads) the peak
// resident set must stay under kBudgetMb. Bounded stats and pooled
// arenas keep it at a few MB whatever the connection count; a
// per-connection or per-sample data structure (the unbounded stats
// vectors alone take it past 100 MB) fails it. A failed getrusage is a
// failure, not a pass.
//
// Check 2, fork merge: kChildren forked children each run a disjoint
// connection-id range serially and send their 7 counters x 3 arms back
// over a pipe. The parent requires exactly that many bytes and exit
// status 0 from every child, sums the counters, and the merged digest
// must equal the in-process digest. Every connection's sample path
// derives from (seed, id) alone, so process boundaries cannot change
// any aggregate.
//
// Takes no arguments (exit 2 on any), reads no environment and writes
// no file. Exit 0 = both checks pass, 1 = a check failed.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <vector>

#include "bench_common.h"
#include "workload/web_workload.h"

using namespace prr;

namespace {

constexpr int kConnections = 200000;
constexpr uint64_t kSeed = 20110501;
constexpr int kThreads = 2;
constexpr int kChildren = 2;
constexpr double kBudgetMb = 64.0;

// Runs ids [lo, hi) serially and writes the arms' counters to `fd`.
// Exits the child: 0 on a complete write, 3 on a failed one.
[[noreturn]] void run_child(const workload::WebWorkload& pop,
                            const std::vector<exp::ArmConfig>& arms,
                            exp::RunOptions opts, uint64_t lo, uint64_t hi,
                            int fd) {
  opts.threads = 1;
  opts.first_connection = lo;
  opts.connections = static_cast<int>(hi - lo);
  std::vector<bench::ArmCounters> counters;
  for (const exp::ArmResult& r : exp::run_arms(pop, arms, opts)) {
    counters.push_back(bench::arm_counters(r));
  }
  const char* p = reinterpret_cast<const char*>(counters.data());
  std::size_t left = counters.size() * sizeof(bench::ArmCounters);
  while (left > 0) {
    const ssize_t n = write(fd, p, left);
    if (n <= 0) _exit(3);
    p += n;
    left -= static_cast<std::size_t>(n);
  }
  _exit(0);
}

// Reads `fd` to end of file into `out`. False on a read error or unless
// it held exactly out->size() counter arrays.
bool read_counters(int fd, std::vector<bench::ArmCounters>* out) {
  const std::size_t want = out->size() * sizeof(bench::ArmCounters);
  std::vector<char> buf(want + 1);  // room to see one byte too many
  std::size_t got = 0;
  for (;;) {
    const ssize_t n = read(fd, buf.data() + got, buf.size() - got);
    if (n < 0) return false;
    if (n == 0) break;
    got += static_cast<std::size_t>(n);
    if (got == buf.size()) return false;
  }
  if (got != want) return false;
  std::memcpy(out->data(), buf.data(), want);
  return true;
}

}  // namespace

int main(int argc, char** /*argv*/) {
  if (argc > 1) {
    std::fprintf(stderr, "memory_ceiling_gate: takes no arguments\n");
    return 2;
  }

  workload::WebWorkload pop;
  const std::vector<exp::ArmConfig> arms = bench::three_way_arms();
  exp::RunOptions opts;
  opts.connections = kConnections;
  opts.seed = kSeed;
  opts.threads = kThreads;
  opts.bounded_stats = true;
  opts.pool_connections = true;
  std::printf(
      "memory_ceiling_gate: %d conns x %zu arms, seed %" PRIu64
      ", bounded stats, pooled arenas\n",
      kConnections, arms.size(), kSeed);

  const uint64_t in_process =
      bench::aggregate_digest(exp::run_arms(pop, arms, opts));
  std::printf("  in-process (%d threads)   digest 0x%016" PRIx64 "\n",
              kThreads, in_process);

  bool ok = true;
  struct rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) != 0) {
    std::perror("FAIL: getrusage");
    ok = false;
  } else {
    // Linux reports ru_maxrss in KiB.
    const double rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
    const bool within = rss_mb <= kBudgetMb;
    std::printf("  peak RSS %.1f MB (budget %.0f MB)%s\n", rss_mb,
                kBudgetMb, within ? "" : "  OVER BUDGET");
    ok = ok && within;
  }

  std::vector<pid_t> children;
  std::vector<int> pipes;
  for (int k = 0; k < kChildren; ++k) {
    const uint64_t lo = uint64_t{kConnections} * k / kChildren;
    const uint64_t hi = uint64_t{kConnections} * (k + 1) / kChildren;
    int fds[2];
    if (pipe(fds) != 0) {
      std::perror("pipe");
      return 1;
    }
    const pid_t pid = fork();
    if (pid < 0) {
      std::perror("fork");
      return 1;
    }
    if (pid == 0) {
      close(fds[0]);
      run_child(pop, arms, opts, lo, hi, fds[1]);
    }
    close(fds[1]);
    children.push_back(pid);
    pipes.push_back(fds[0]);
  }
  bool merge_ok = true;
  std::vector<bench::ArmCounters> merged(arms.size(),
                                         bench::ArmCounters{});
  for (int k = 0; k < kChildren; ++k) {
    std::vector<bench::ArmCounters> shard(arms.size());
    const bool complete = read_counters(pipes[k], &shard);
    close(pipes[k]);
    int status = 0;
    const bool clean = waitpid(children[k], &status, 0) == children[k] &&
                       WIFEXITED(status) && WEXITSTATUS(status) == 0;
    if (!complete || !clean) {
      std::printf("  child %d: %s\n", k,
                  !clean ? "did not exit 0" : "wrong payload size");
      merge_ok = false;
      continue;
    }
    for (std::size_t a = 0; a < arms.size(); ++a) {
      for (std::size_t i = 0; i < merged[a].size(); ++i) {
        merged[a][i] += shard[a][i];
      }
    }
  }
  const uint64_t fork_merged = bench::aggregate_digest(merged);
  merge_ok = merge_ok && fork_merged == in_process;
  std::printf("  fork merge (%d children)  digest 0x%016" PRIx64 "%s\n",
              kChildren, fork_merged, merge_ok ? "" : "  MISMATCH");
  ok = ok && merge_ok;

  std::printf("%s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
