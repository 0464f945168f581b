// Self-contained failure repro cases: everything needed to re-run one
// torturing connection in isolation, as a plain text file — the
// artifact the shrinker minimizes and the checked-in corpus
// (tests/corpus/) replays as regression tests.
//
// A ReproCase pins the *explicit* connection environment (network,
// workload, faults, pathologies — a full ConnectionSample, not a
// reference to the population that drew it), the arm configuration
// including defense toggles, the (seed, connection id) pair that seeds
// the network randomness, and the expected failure signature. Running
// one goes through exp::replay, so a repro executes the
// exact code path the campaign's quarantine machinery exercised.
//
// File format: a `prr-repro v1` header then `key = value` lines;
// `#` starts a comment. Repeated `response`, `fault` and `expect` keys
// build lists. to_text()/from_text() round-trip exactly (times in
// integer nanoseconds, probabilities in %.17g), so a saved case replays
// the original byte for byte.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "exp/experiment.h"
#include "sim/time.h"
#include "workload/population.h"

namespace prr::torture {

struct ReproCase {
  std::string name;        // slug for filenames and logs
  std::string arm = "PRR"; // "PRR" | "RFC 3517" | "Linux"
  uint64_t seed = 1;
  uint64_t connection = 0; // id within the run (pins the rng forks)
  sim::Time limit = sim::Time::seconds(300);
  int watchdog_rto_backoffs = 4;

  // Arm overrides (defense toggles; see exp::ArmConfig).
  int max_rto_backoffs = 7;
  bool renege_recovery = true;
  bool validate_acks = true;
  bool zero_window_probes = true;

  // The full, explicit connection environment.
  workload::ConnectionSample sample;

  // Failure signature: invariant-kind names (tcp::to_string) this case
  // must reproduce. Special tokens: "exception" (the connection threw),
  // "not_terminated" (neither completed nor aborted by the limit),
  // "aborted" (the sender gave up).
  std::vector<std::string> expect;
};

// Population wrapper returning `sample` for every connection id (the
// repro pins one explicit environment; network randomness still derives
// from the run's (seed, id) forks as usual).
class ReproPopulation final : public workload::Population {
 public:
  explicit ReproPopulation(const workload::ConnectionSample& s)
      : sample_(s) {}
  workload::ConnectionSample sample(sim::Rng) const override {
    return sample_;
  }

 private:
  workload::ConnectionSample sample_;
};

std::string to_text(const ReproCase& c);
// Returns false (and sets *error when non-null) on malformed input.
bool from_text(const std::string& text, ReproCase& out, std::string* error);

bool save_repro(const ReproCase& c, const std::string& path,
                std::string* error);
bool load_repro(const std::string& path, ReproCase& out, std::string* error);

// The arm configuration this case runs under.
exp::ArmConfig repro_arm(const ReproCase& c);

// Replays the case (invariant checking and torture oracles forced on).
exp::ReplayResult run_repro(const ReproCase& c);

// True when `r` exhibits the case's recorded failure signature: every
// expected invariant kind appears among the replay's violations (and
// "exception" matches a throwing run).
bool repro_reproduced(const ReproCase& c, const exp::ReplayResult& r);

}  // namespace prr::torture
