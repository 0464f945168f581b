// The torture campaign: a bounded, seeded randomized fuzzing run over
// the pathology grammar. Each campaign seed draws a small batch of
// tortured connections and runs them through all three recovery arms
// (PRR / RFC 3517 / Linux rate halving) with invariant checking and the
// torture oracles armed, plus the cross-arm differential oracle over
// the terminal byte streams. Every failure is materialized into a
// self-contained ReproCase and (optionally) minimized by the shrinker.
//
// Determinism: campaign seed i is base_seed + i, every connection's
// sample path derives from (seed, id), and aggregation follows the
// experiment harness's id-ordered merge — so the same configuration
// produces a byte-identical summary_json() at any thread count.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "exp/experiment.h"
#include "torture/pathology.h"
#include "torture/repro.h"

namespace prr::torture {

struct CampaignConfig {
  int seeds = 200;
  uint64_t base_seed = 1;
  int connections_per_seed = 6;
  sim::Time per_connection_limit = sim::Time::seconds(300);
  int threads = 1;
  int watchdog_rto_backoffs = 4;
  PathologyProfile profile = PathologyProfile::standard();

  bool shrink_failures = true;
  int shrink_max_replays = 200;
};

// One cross-arm differential finding (torture/oracles.h catalog:
// kArmDivergence-class, detected over ConnOutcome tables).
struct Divergence {
  uint64_t connection = 0;
  std::string arm;   // offending arm ("" when the finding is cross-arm)
  std::string kind;  // "not_terminated" | "delivered_mismatch" |
                     // "over_delivered" | "expected_mismatch"
  std::string detail;
};

// Compares the arms' per-connection terminal states (requires
// RunOptions::collect_outcomes): every arm must deliver the identical
// byte stream or abort cleanly.
std::vector<Divergence> diff_outcomes(const std::vector<exp::ArmResult>& arms);

struct CampaignFailure {
  uint64_t seed = 0;
  uint64_t connection = 0;
  std::string arm;
  std::vector<std::string> kinds;  // failure signature (sorted, unique)
  std::string summary;             // human-readable original finding
  // Perfetto JSON of the original quarantine's trace tail (empty for
  // cross-arm divergences);
  // excluded from summary_json() so the summary stays deterministic
  // across trace configurations.
  std::string trace_json;
  ReproCase repro;                 // minimized when shrinking succeeded
  bool repro_verified = false;     // the (minimized) repro reproduces
  int shrink_replays = 0;
  int shrink_accepted = 0;
};

struct CampaignResult {
  int seeds_run = 0;
  uint64_t connections_run = 0;  // per arm x arms
  uint64_t acks_checked = 0;
  uint64_t violations = 0;
  std::vector<CampaignFailure> failures;

  // Deterministic summary (no timestamps, no wall-clock): totals plus
  // one entry per failure in campaign order.
  std::string summary_json() const;
};

CampaignResult run_campaign(const workload::Population& base,
                            const CampaignConfig& cfg);

}  // namespace prr::torture
