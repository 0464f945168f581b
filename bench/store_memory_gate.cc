// store_memory_gate: the trace store's read-side memory bound (DESIGN.md
// §14.3) at one fixed configuration: the Web population, the PRR arm,
// seed 20110501, kConnections connections captured whole (capture=all)
// into two range shards. kConnections is sized for a merged store of
// about 49 MB (48.6 MB in format v2), comfortably past kMinStoreMb, so
// the budget stays a small fraction of the file it reads.
//
// A forked child writes the shards, so the sweep's own memory never
// counts against the parent. The parent then runs the query phase: a
// two-shard merge into one store of at least kMinStoreMb, an open of the
// merged store, a per-connection aggregate and the episode table. That
// phase may raise the parent's peak resident set by at most kBudgetMb,
// well under the store's size: a reader that holds a whole store in
// memory fails it. The merged store must hold every connection. A failed
// getrusage is a failure, not a pass.
//
// The stores go to a fresh directory under $TMPDIR (else /tmp), removed
// at the end. Not a ctest: ASan's shadow memory would swamp the budget.
// Takes no arguments (exit 2 on any). Exit 0 = pass, 1 = a check failed.
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "exp/experiment.h"
#include "obs/query.h"
#include "obs/store/store_reader.h"
#include "obs/store/store_writer.h"
#include "workload/web_workload.h"

using namespace prr;

namespace {

constexpr int kConnections = 65000;
constexpr uint64_t kSeed = 20110501;
constexpr int kThreads = 2;
constexpr double kMinStoreMb = 40.0;
constexpr double kBudgetMb = 16.0;

// Peak resident set so far, in MB; negative if getrusage failed.
double peak_rss_mb() {
  struct rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return -1.0;
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

// Writes the two range shards, to the PRR arm's store paths under the
// prefixes `lo` and `hi`, in a child process. True if it exited 0.
bool write_shards(const std::string& lo, const std::string& hi) {
  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("fork");
    return false;
  }
  if (pid == 0) {
    workload::WebWorkload pop;
    const exp::ArmConfig arm = exp::ArmConfig::prr_arm();
    exp::RunOptions opts;
    opts.seed = kSeed;
    opts.threads = kThreads;
    opts.capture = "all";
    opts.connections = kConnections / 2;
    opts.store_path = lo;
    exp::run_arm(pop, arm, opts);
    opts.first_connection = kConnections / 2;
    opts.connections = kConnections - kConnections / 2;
    opts.store_path = hi;
    exp::run_arm(pop, arm, opts);
    _exit(0);
  }
  int status = 0;
  return waitpid(pid, &status, 0) == pid && WIFEXITED(status) &&
         WEXITSTATUS(status) == 0;
}

}  // namespace

int main(int argc, char** /*argv*/) {
  if (argc > 1) {
    std::fprintf(stderr, "store_memory_gate: takes no arguments\n");
    return 2;
  }
  const char* tmp = std::getenv("TMPDIR");
  std::string dir = tmp != nullptr && *tmp != '\0' ? tmp : "/tmp";
  dir += "/prr_store_gate.XXXXXX";
  if (mkdtemp(dir.data()) == nullptr) {
    std::perror("mkdtemp");
    return 1;
  }
  const std::string arm = exp::ArmConfig::prr_arm().name;
  const std::string lo = obs::store_path_for_arm(dir + "/lo", arm);
  const std::string hi = obs::store_path_for_arm(dir + "/hi", arm);
  const std::string merged = dir + "/merged.prrstore";
  std::printf("store_memory_gate: %d conns, PRR arm, capture all, "
              "seed %" PRIu64 ", two shards\n",
              kConnections, kSeed);

  bool ok = write_shards(dir + "/lo", dir + "/hi");
  if (!ok) std::printf("  FAIL: the shard-writing child did not exit 0\n");
  const double before = peak_rss_mb();

  std::string err;
  obs::StoreReader reader;
  obs::AggregateResult rows;
  obs::EpisodeTable episodes;
  if (ok) {
    obs::AggregateQuery agg;
    agg.filter.set_only_type(obs::TraceType::kAck);
    agg.group = obs::GroupKey::kConn;
    agg.field = obs::QueryField::kF1;  // ack records: f1 = cwnd
    ok = obs::merge_store_files({lo, hi}, merged, &err) &&
         obs::StoreReader::open(merged, &reader, &err) &&
         obs::run_aggregate(reader, agg, &rows, &err) &&
         obs::episodes_from_store(reader, obs::QueryFilter{}, &episodes,
                                  &err);
    if (!ok) std::printf("  FAIL: %s\n", err.c_str());
  }
  const double after = peak_rss_mb();

  if (ok) {
    struct stat st{};
    const double store_mb =
        stat(merged.c_str(), &st) == 0
            ? static_cast<double>(st.st_size) / (1024.0 * 1024.0)
            : 0.0;
    std::printf("  merged store %.1f MB (at least %.0f MB): %zu conns, "
                "%" PRIu64 " records, %zu agg rows, %zu episodes\n",
                store_mb, kMinStoreMb, reader.connections().size(),
                reader.total_records(), rows.rows.size(), episodes.total());
    if (store_mb < kMinStoreMb) {
      std::printf("  FAIL: store smaller than %.0f MB\n", kMinStoreMb);
      ok = false;
    }
    if (reader.connections().size() !=
        static_cast<std::size_t>(kConnections)) {
      std::printf("  FAIL: merged store lacks connections\n");
      ok = false;
    }
  }
  if (before < 0.0 || after < 0.0) {
    std::perror("  FAIL: getrusage");
    ok = false;
  } else {
    const bool within = after - before <= kBudgetMb;
    std::printf("  peak RSS %.1f MB before the query phase, %.1f MB after: "
                "+%.1f MB (budget %.0f MB)%s\n",
                before, after, after - before, kBudgetMb,
                within ? "" : "  OVER BUDGET");
    ok = ok && within;
  }

  for (const std::string& p : {lo, hi, merged}) std::remove(p.c_str());
  rmdir(dir.c_str());
  std::printf("%s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
