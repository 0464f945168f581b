// episode_gate: CI reconciliation check for the episode analytics layer
// (DESIGN.md §9). The episode tables are *derived* state — rebuilt from
// each connection's trace stream — so they must agree bit-exactly with
// the ground-truth accumulators the sender maintains directly:
//
//   1. the finished episode rows, as a stats::RecoveryLog, hold the
//      sender's RecoveryLog events, in order (RecoveryEvent::operator==);
//   2. the stream counters == the tcp::Metrics counters of the same
//      name, and episodes.total() == metrics.fast_recovery_events;
//   3. the table's JSON serialization is identical at threads 1/4/8 and
//      with tracing on or off (the deterministic-merge contract).
//
// Exits non-zero on the first mismatch, printing what diverged.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "exp/experiment.h"
#include "obs/episodes.h"
#include "workload/web_workload.h"

using namespace prr;

namespace {

int g_failures = 0;

#define GATE_CHECK(cond, ...)                         \
  do {                                                \
    if (!(cond)) {                                    \
      std::printf("FAIL: " __VA_ARGS__);              \
      std::printf("  [%s]\n", #cond);                 \
      ++g_failures;                                   \
    }                                                 \
  } while (0)

void reconcile_rows(const exp::ArmResult& r, const char* tag) {
  const stats::RecoveryLog log = r.episodes.finished_log();
  const auto& derived = log.events();
  const auto& logged = r.recovery_log.events();
  GATE_CHECK(derived.size() == logged.size(),
             "%s: %zu finished episodes vs %zu recovery-log events\n", tag,
             derived.size(), logged.size());
  const auto [d, l] = std::mismatch(derived.begin(), derived.end(),
                                    logged.begin(), logged.end());
  GATE_CHECK(d == derived.end() || l == logged.end(),
             "%s[%zu]: finished episode differs from the recovery-log "
             "event\n",
             tag, static_cast<std::size_t>(d - derived.begin()));
}

void reconcile_counters(const exp::ArmResult& r, const char* tag) {
  const auto& s = r.episodes.stream();
  const auto& m = r.metrics;
  GATE_CHECK(s.data_segments_sent == m.data_segments_sent,
             "%s: data_segments_sent %llu vs %llu\n", tag,
             (unsigned long long)s.data_segments_sent,
             (unsigned long long)m.data_segments_sent);
  GATE_CHECK(s.retransmits_total == m.retransmits_total,
             "%s: retransmits_total %llu vs %llu\n", tag,
             (unsigned long long)s.retransmits_total,
             (unsigned long long)m.retransmits_total);
  GATE_CHECK(s.fast_retransmits == m.fast_retransmits,
             "%s: fast_retransmits %llu vs %llu\n", tag,
             (unsigned long long)s.fast_retransmits,
             (unsigned long long)m.fast_retransmits);
  GATE_CHECK(s.dsacks_received == m.dsacks_received,
             "%s: dsacks_received %llu vs %llu\n", tag,
             (unsigned long long)s.dsacks_received,
             (unsigned long long)m.dsacks_received);
  GATE_CHECK(s.undo_events == m.undo_events, "%s: undo_events\n", tag);
  GATE_CHECK(s.lost_retransmits_detected == m.lost_retransmits_detected,
             "%s: lost_retransmits_detected\n", tag);
  GATE_CHECK(s.lost_fast_retransmits == m.lost_fast_retransmits,
             "%s: lost_fast_retransmits\n", tag);
  GATE_CHECK(s.timeouts_total == m.timeouts_total, "%s: timeouts_total\n",
             tag);
  GATE_CHECK(r.episodes.total() == m.fast_recovery_events,
             "%s: episode total %zu vs fast_recovery_events %llu\n", tag,
             r.episodes.total(),
             (unsigned long long)m.fast_recovery_events);
  GATE_CHECK(r.episodes.finished() == r.recovery_log.count(),
             "%s: finished %zu vs log count %zu\n", tag,
             r.episodes.finished(), r.recovery_log.count());
}

}  // namespace

int main() {
  workload::WebWorkload pop;
  const std::vector<exp::ArmConfig> arms = {exp::ArmConfig::prr_arm(),
                                            exp::ArmConfig::rfc3517_arm(),
                                            exp::ArmConfig::linux_arm()};
  const int thread_counts[] = {1, 4, 8};

  // Reference serialization per arm, from the serial tracing-off run;
  // every other configuration must serialize identically.
  std::vector<std::string> reference;

  for (const bool trace : {false, true}) {
    for (const int threads : thread_counts) {
      exp::RunOptions opts;
      opts.connections = 3000;
      opts.seed = 11;
      opts.threads = threads;
      opts.trace = trace;
      opts.collect_episodes = true;
      const auto results = exp::run_arms(pop, arms, opts);

      for (std::size_t a = 0; a < results.size(); ++a) {
        char tag[96];
        std::snprintf(tag, sizeof(tag), "%s t=%d trace=%d",
                      results[a].name.c_str(), threads, trace ? 1 : 0);
        reconcile_rows(results[a], tag);
        reconcile_counters(results[a], tag);

        const std::string json = results[a].episodes.to_json();
        if (reference.size() <= a) {
          reference.push_back(json);
        } else {
          GATE_CHECK(json == reference[a],
                     "%s: episode table JSON differs from serial "
                     "tracing-off run\n",
                     tag);
        }
        std::printf("ok: %-24s episodes %-5zu finished %-5zu json %zu B\n",
                    tag, results[a].episodes.total(),
                    results[a].episodes.finished(), json.size());
      }
    }
  }

  if (g_failures > 0) {
    std::printf("episode_gate: %d check(s) FAILED\n", g_failures);
    return 1;
  }
  std::printf("episode_gate: all reconciliations passed "
              "(threads 1/4/8, tracing on/off, 3 arms)\n");
  return 0;
}
