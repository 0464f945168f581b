// Quarantine-and-replay walkthrough: runs a chaos sweep with invariant
// checking on, then replays every quarantined connection deterministically
// in isolation and verifies the replay reproduces the recorded failure.
//
// Because the whole per-connection sample path — workload, network
// impairments, fault schedule — derives from (seed, connection id), the
// replay is bit-for-bit the computation the sweep performed, minus the
// other 149 connections. That is the debugging loop this harness buys:
// a violation seen once in a 500-connection chaos run shrinks to a
// single-connection repro you can step through.
//
// A healthy build quarantines nothing, so by default this example injects
// one synthetic violation (connection 7, third ACK) to show the machinery
// end to end. Run with --no-inject to do an honest sweep, which must
// quarantine nothing; any other argument exits 2.
//
// Each quarantined connection also carries the tail of its flight
// recorder — the last few hundred trace records leading up to the
// violation. This example prints that tail (one line per record) and
// writes it as Chrome trace-event JSON you can drop into
// https://ui.perfetto.dev to scrub through the failure visually.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/replay_quarantine
#include <cstdio>
#include <cstring>
#include <string>

#include "exp/experiment.h"
#include "exp/scenarios.h"
#include "obs/json.h"
#include "obs/trace_diff.h"
#include "obs/trace_record.h"
#include "util/artifacts.h"
#include "workload/web_workload.h"

using namespace prr;

int main(int argc, char** argv) {
  bool inject = true;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--no-inject") == 0) {
      inject = false;
    } else {
      std::fprintf(stderr,
                   "unknown argument '%s' (usage: %s [--no-inject])\n",
                   argv[i], argv[0]);
      return 2;
    }
  }

  workload::WebWorkload base;
  exp::ChaosSpec spec = exp::ChaosSpec::everything();
  exp::ChaosPopulation pop(base, spec.profile);

  exp::RunOptions opts;
  opts.connections = 150;
  opts.seed = 7;
  opts.check_invariants = true;
  opts.threads = 0;  // parallel sweep: byte-identical to serial
  opts.scenario = spec.name;
  // Checked runs always carry a flight recorder; size the ring so the
  // injected early-ACK violation is still in the end-of-run tail.
  opts.trace = true;
  opts.trace_ring_records = 1u << 16;
  opts.trace_tail_records = 1u << 16;
  if (inject) {
    opts.inject_violation_connection = 7;
    opts.inject_violation_on_ack = 3;
  }

  std::vector<exp::ArmConfig> arms = {exp::ArmConfig::prr_arm(),
                                      exp::ArmConfig::rfc3517_arm(),
                                      exp::ArmConfig::linux_arm()};

  std::printf("chaos sweep: scenario '%s', %d connections x %zu arms%s\n\n",
              spec.name.c_str(), opts.connections, arms.size(),
              inject ? " (one synthetic violation injected)" : "");

  std::vector<exp::ArmResult> results = exp::run_arms(pop, arms, opts);

  for (std::size_t a = 0; a < arms.size(); ++a) {
    const exp::ArmResult& r = results[a];
    std::printf("arm %-10s acks checked %-8llu violations %-4llu "
                "quarantined %zu\n",
                r.name.c_str(), (unsigned long long)r.acks_checked,
                (unsigned long long)r.invariant_violations,
                r.quarantined.size());
  }

  int failures = 0;
  for (std::size_t a = 0; a < arms.size(); ++a) {
    for (const exp::QuarantineRecord& rec : results[a].quarantined) {
      std::printf("\nquarantined: %s\n", rec.summary().c_str());

      // The flight-recorder tail: what the connection was doing in the
      // run-up to the violation, newest records last. Show the final
      // stretch; the full tail goes into the Perfetto JSON below.
      if (!rec.trace_tail.empty()) {
        const std::size_t show = rec.trace_tail.size() < 12
                                     ? rec.trace_tail.size()
                                     : std::size_t{12};
        std::printf("flight-recorder tail (%zu records, last %zu shown):\n",
                    rec.trace_tail.size(), show);
        for (std::size_t i = rec.trace_tail.size() - show;
             i < rec.trace_tail.size(); ++i) {
          std::printf("  %s\n", obs::describe(rec.trace_tail[i]).c_str());
        }
        char name[64];
        std::snprintf(name, sizeof(name), "quarantine_conn%llu_trace.json",
                      (unsigned long long)rec.connection_id);
        const std::string path = util::artifact_path(name);
        if (obs::checked_write_json(path, rec.trace_json())) {
          std::printf("wrote %s -- open it at https://ui.perfetto.dev\n",
                      path.c_str());
        } else {
          std::printf("FAIL: could not write %s\n", path.c_str());
          ++failures;
        }
      }

      // Quarantine forensics from the episode layer: the recovery
      // episode in flight (or closest to) the failure, reconstructed
      // from the trace tail with its per-ACK ledger.
      const std::string culprit = rec.episode_summary();
      if (!culprit.empty()) {
        std::printf("culprit episode:\n%s\n", culprit.c_str());
      } else {
        std::printf("no recovery episode in the captured tail\n");
      }

      // Cross-arm triage: re-run the same connection under a reference
      // arm. CRN makes the sample paths identical, so the first
      // divergent record is the first decision this arm made
      // differently — often the shortest path to "why only this arm".
      {
        const std::size_t ref =
            (a + 1) % arms.size();  // any other arm works as reference
        exp::RunOptions iso = opts;
        iso.inject_violation_connection = -1;  // honest re-runs
        exp::TracedConnection mine = exp::trace_connection(
            pop, arms[a], iso, rec.connection_id);
        exp::TracedConnection other = exp::trace_connection(
            pop, arms[ref], iso, rec.connection_id);
        const obs::DivergencePoint d =
            obs::first_divergence(mine.records, other.records);
        if (d.diverged && !d.a_ended && !d.b_ended) {
          std::printf("first divergence vs %s arm after %zu common "
                      "records:\n  %-10s %s\n  %-10s %s\n",
                      arms[ref].name.c_str(), d.common_count,
                      arms[a].name.c_str(), obs::describe(d.a).c_str(),
                      arms[ref].name.c_str(), obs::describe(d.b).c_str());
        } else if (d.diverged) {
          std::printf("diverged from %s arm by exhaustion after %zu "
                      "common records\n",
                      arms[ref].name.c_str(), d.common_count);
        } else {
          std::printf("identical record stream to %s arm (%zu records): "
                      "the failure is arm-independent\n",
                      arms[ref].name.c_str(), d.common_count);
        }
      }

      exp::ReplayResult replay = exp::replay(pop, arms[a], opts, rec);
      const bool ok = replay.reproduced(rec);
      std::printf("replay: %zu violation(s), %llu ACKs checked -> %s\n",
                  replay.violations.size(),
                  (unsigned long long)replay.acks_checked,
                  ok ? "reproduced" : "DID NOT REPRODUCE");
      if (!ok) ++failures;
    }
  }

  // The injected violation must have been caught and replayed; an honest
  // sweep must quarantine nothing.
  bool quarantined = false;
  for (const auto& r : results) quarantined |= !r.quarantined.empty();
  if (inject && !quarantined) {
    std::printf("\nERROR: injected violation was not quarantined\n");
    return 1;
  }
  if (!inject && quarantined) {
    std::printf("\nERROR: the honest sweep quarantined a connection\n");
    return 1;
  }
  if (failures > 0) {
    std::printf("\n%d quarantined connection(s) failed to replay\n", failures);
    return 1;
  }
  std::printf("\nall quarantined connections replayed deterministically\n");
  return 0;
}
