// torture_gate: the adversarial torture campaign as a gate. Runs a
// seeded randomized campaign (pathology grammar x 3 recovery arms x
// progress/conservation/differential oracles) over the DC1-style web
// population, minimizes every failure with the shrinker, and exits
// non-zero if any failure was found — each one shipped as a
// self-contained .repro file ready to check into tests/corpus/.
//
// `reproduce torture_gate`, fixed configuration: 200 seeds x
// 6 connections x 3 arms from base seed 1, 2 worker threads, a 300 s
// per-connection limit, watchdog after 4 no-progress RTOs, shrinking on.
// The campaign is deterministic, so stdout is a `ctest -L tables`
// golden. Artifacts go under the artifact directory (util/artifacts.h)
// as torture/summary.json, plus torture/<name>.repro and the original
// quarantine's torture/<name>.trace.json per failure; a file that cannot
// be written fails the gate.
#include <cstdio>
#include <filesystem>
#include <string>

#include "obs/json.h"
#include "torture/campaign.h"
#include "util/artifacts.h"
#include "workload/web_workload.h"

using namespace prr;

int torture_gate() {
  torture::CampaignConfig cfg;
  cfg.seeds = 200;
  cfg.base_seed = 1;
  cfg.connections_per_seed = 6;
  cfg.threads = 2;
  cfg.per_connection_limit = sim::Time::seconds(300);
  cfg.watchdog_rto_backoffs = 4;
  cfg.shrink_failures = true;

  workload::WebWorkload base;
  std::printf("torture_gate: %d seeds x %d connections x 3 arms "
              "(base seed %llu, %d threads)\n",
              cfg.seeds, cfg.connections_per_seed,
              static_cast<unsigned long long>(cfg.base_seed), cfg.threads);
  torture::CampaignResult result = torture::run_campaign(base, cfg);

  const std::string summary = result.summary_json();
  std::printf("%s", summary.c_str());

  const std::string dir = util::artifact_path("torture");
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  int write_failures = 0;
  auto written = [&write_failures](bool ok, const std::string& name) {
    if (!ok) {
      std::printf("FAIL: could not write torture/%s\n", name.c_str());
      ++write_failures;
    }
  };
  written(obs::checked_write_json(dir + "/summary.json", summary),
          "summary.json");
  for (const torture::CampaignFailure& fail : result.failures) {
    const std::string repro = fail.repro.name + ".repro";
    written(torture::save_repro(fail.repro, dir + "/" + repro, nullptr),
            repro);
    if (!fail.trace_json.empty()) {
      const std::string trace = fail.repro.name + ".trace.json";
      written(obs::checked_write_json(dir + "/" + trace, fail.trace_json),
              trace);
    }
  }

  if (!result.failures.empty()) {
    std::printf("torture_gate: FAIL — %zu failure(s) across %d seeds\n",
                result.failures.size(), result.seeds_run);
    for (const torture::CampaignFailure& fail : result.failures) {
      std::printf("  [%s] %s\n", fail.repro.name.c_str(),
                  fail.summary.c_str());
    }
    return 1;
  }
  if (write_failures > 0) return 1;
  std::printf("torture_gate: PASS — %d seeds, %llu connections, %llu ACKs "
              "checked, 0 failures\n",
              result.seeds_run,
              static_cast<unsigned long long>(result.connections_run),
              static_cast<unsigned long long>(result.acks_checked));
  return 0;
}
