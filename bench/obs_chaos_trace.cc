// CI gate for the observability layer: runs the chaos suite with the
// flight recorder and invariant checker attached to every connection,
// then fails (non-zero exit) unless
//   1. the registry's per-connection retransmit histogram reconciles
//      exactly with the ArmResult totals,
//   2. the registry JSON export parses,
//   3. a forced-quarantine connection carries a flight-recorder tail
//      whose Perfetto trace-event JSON parses and names the invariant
//      violation, and replay reproduces it.
#include <cstdio>
#include <string>

#include "bench_common.h"
#include "exp/scenarios.h"
#include "obs/json.h"
#include "workload/web_workload.h"

using namespace prr;

namespace {

int g_failures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    std::printf("FAIL: %s\n", what.c_str());
    ++g_failures;
  }
}

uint64_t counter_value(const exp::ArmResult& r, const char* name) {
  const obs::Counter* c = r.registry.find_counter(name);
  check(c != nullptr, std::string("registry missing counter ") + name);
  return c != nullptr ? c->value() : 0;
}

// The registry's per-connection fold must agree with the arm fold: the
// retransmit histogram records each connection's ledger, the arm's
// Metrics sums the same ledgers.
void reconcile(const std::string& scenario, const exp::ArmResult& r) {
  const obs::LogHistogram* h = r.registry.find_histogram(
      "tcp.retransmits_per_conn");
  check(h != nullptr && h->sum() == r.metrics.retransmits_total &&
            h->count() == r.connections_run,
        scenario + ": tcp.retransmits_per_conn histogram disagrees");

  const std::string json = r.registry.to_json();
  check(obs::json_valid(json), scenario + ": registry JSON does not parse");

  const uint64_t written = counter_value(r, "obs.trace.records_written");
  check(written > 0, scenario + ": tracing on but 0 records written");
}

}  // namespace

int main() {
  bench::print_header(
      "observability CI gate: traced chaos sweep + artifact validation",
      "the per-connection registry fold must agree with the arm fold "
      "under every chaos regime, and quarantine trace tails must export "
      "valid "
      "Perfetto JSON");

  util::Table t({"scenario", "acks checked", "violations", "quarantined",
                 "trace records", "registry bytes"});
  for (const exp::ChaosSpec& spec : exp::standard_chaos_suite()) {
    workload::WebWorkload base;
    exp::ChaosPopulation pop(base, spec.profile);

    exp::RunOptions opts;
    opts.connections = 400;
    opts.seed = 97;
    opts.threads = 0;  // parallel merge must still reconcile exactly
    opts.check_invariants = true;
    opts.trace = true;
    opts.scenario = spec.name;

    const exp::ArmResult r =
        exp::run_arm(pop, exp::ArmConfig::prr_arm(), opts);
    reconcile(spec.name, r);
    check(r.invariant_violations == 0 && r.quarantined.empty(),
          spec.name + ": chaos run tripped invariants");
    for (const auto& rec : r.quarantined) {
      std::printf("QUARANTINED: %s\n", rec.summary().c_str());
      check(obs::json_valid(rec.trace_json()),
            spec.name + ": quarantine trace JSON does not parse");
    }
    t.add_row({spec.name, std::to_string(r.acks_checked),
               std::to_string(r.invariant_violations),
               std::to_string(r.quarantined.size()),
               std::to_string(counter_value(r, "obs.trace.records_written")),
               std::to_string(r.registry.to_json().size())});
  }
  std::printf("%s\n", t.to_string().c_str());

  // Force one quarantine and validate the whole artifact chain: tail
  // captured, Perfetto JSON parses, violation record present, replay
  // reproduces with a tail of its own.
  {
    workload::WebWorkload pop;
    exp::RunOptions opts;
    opts.connections = 30;
    opts.seed = 20110501;
    opts.threads = 1;
    opts.check_invariants = true;
    opts.trace = true;
    opts.inject_violation_connection = 11;
    opts.inject_violation_on_ack = 3;
    opts.trace_ring_records = 1u << 16;
    opts.trace_tail_records = 1u << 16;

    const exp::ArmResult r =
        exp::run_arm(pop, exp::ArmConfig::prr_arm(), opts);
    check(r.quarantined.size() == 1,
          "forced violation did not quarantine exactly one connection");
    if (!r.quarantined.empty()) {
      const exp::QuarantineRecord& rec = r.quarantined[0];
      const std::string json = rec.trace_json();
      check(obs::json_valid(json),
            "quarantine Perfetto JSON does not parse");
      check(!rec.trace_tail.empty(), "quarantine record has no trace tail");
      check(json.find("\"name\":\"invariant\"") != std::string::npos,
            "quarantine trace lacks the invariant-violation record");
      exp::Experiment experiment(pop, opts);
      const exp::ReplayResult replay =
          experiment.replay(exp::ArmConfig::prr_arm(), rec);
      check(replay.reproduced(rec), "replay did not reproduce the failure");
      check(!replay.trace_tail.empty(), "replay produced no trace tail");
    }
    std::printf("forced-quarantine artifact chain: %s\n",
                g_failures == 0 ? "ok" : "FAILED");
  }

  std::printf("\nobs chaos gate: %d failure(s)%s\n", g_failures,
              g_failures == 0 ? " -- PASS" : " -- FAIL");
  return g_failures == 0 ? 0 : 1;
}
