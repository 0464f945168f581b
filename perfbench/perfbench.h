// Shared pieces of the benchmark program: the workload table, the sweep
// configuration every measurement starts from, the fixed store query set,
// and the pass/fail tally that feeds the result line.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "exp/experiment.h"
#include "workload/population.h"

namespace perfbench {

struct WorkloadSpec {
  const char* name;
  bool video;                // DC2 video population (otherwise DC1 Web)
  bool capture_in_sweep;     // timed sweeps write a store (PRR arm only)
  // Each arm runs its own block of connection ids instead of all arms
  // sharing one: the same cost buys a population three times as large.
  bool disjoint_arms;
  int connections;           // per arm, in every timed sweep
  int serial_chunks;         // id ranges the serial sweep is timed in
  int capture_connections;   // PRR-arm connections of the queried store
  uint32_t ring_records;     // recorder ring when capturing: no wrap
};

// nullptr for an unknown name.
const WorkloadSpec* find_workload(const std::string& name);

// Everything a measurement needs, built once per process from the
// command line. The program under test receives only `pop` and the
// options derived from `seed`.
struct Bench {
  const WorkloadSpec* spec = nullptr;
  uint64_t seed = 0;
  std::string out_dir;  // scratch directory for store files
  std::unique_ptr<prr::workload::Population> pop;
  std::vector<prr::exp::ArmConfig> arms;
  int par_threads = 1;  // min(4, nproc)

  // Options of arm `arm` in the timed sweep at `threads` workers; a
  // non-empty `store_file` captures every connection into that store.
  prr::exp::RunOptions arm_options(std::size_t arm, int threads,
                                   const std::string& store_file) const;
  // Every arm over ids [lo, lo + count) of its block (count < 0: all).
  std::vector<prr::exp::ArmResult> sweep(
      const prr::workload::Population& population, int threads,
      const std::string& store_file, int lo = 0, int count = -1) const;
  // Distinct connection ids the timed sweep runs.
  int total_connections() const {
    return spec->connections *
           (spec->disjoint_arms ? static_cast<int>(arms.size()) : 1);
  }
  // The PRR-arm run over the queried store's connections.
  prr::exp::RunOptions capture_options() const;
  std::string path(const std::string& file) const {
    return out_dir + "/" + file;
  }
};

int64_t now_ns();
double median(std::vector<double> v);
// Order-sensitive digest of every deterministic aggregate of a sweep.
uint64_t digest(const std::vector<prr::exp::ArmResult>& results);

// Attempted/failed operations. A failed check prints one FAIL line and
// turns the result incorrect.
class Tally {
 public:
  bool check(bool ok, const std::string& what);
  // Counts each connection-arm as attempted; missing, thrown and
  // quarantined ones as failed.
  void count_arms(const std::vector<prr::exp::ArmResult>& results,
                  int expected_per_arm);
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

// The fixed read-query set over one store file: open with digest
// verification, ack cwnd aggregated by connection, episode
// reconstruction. `records` is what the two full scans decoded.
struct QueryRun {
  bool ok = false;
  double open_s = 0;
  double agg_s = 0;
  double episodes_s = 0;
  uint64_t records = 0;
  uint64_t result_digest = 0;  // identical on every run of one file
  uint64_t store_records = 0;
  uint64_t store_connections = 0;
  uint64_t truncated_blocks = 0;
  std::string episodes_json;
};
QueryRun run_query_set(const std::string& store_file);

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

// The traced run: per-layer metrics, exact work counts, and the checks
// that need a live episode table. Runs passes until `budget_s` is spent
// (at least two, whose exact counts must agree bit for bit).
std::vector<Metric> run_layers(const Bench& b, double budget_s, Tally& tally);

}  // namespace perfbench
