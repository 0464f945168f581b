#include "torture/campaign.h"

#include <algorithm>
#include <cctype>
#include <cinttypes>
#include <cstdio>
#include <utility>

#include "obs/json.h"
#include "torture/shrink.h"

namespace prr::torture {

namespace {

std::string arm_slug(const std::string& name) {
  if (name == "RFC 3517") return "rfc3517";
  if (name == "Linux") return "linux";
  if (name == "PRR") return "prr";
  std::string slug;
  for (char ch : name) {
    slug += (ch == ' ' ? '-' : static_cast<char>(std::tolower(ch)));
  }
  return slug;
}

// Materializes the explicit environment connection (seed, id) ran under
// — the same draw the experiment harness performs.
workload::ConnectionSample materialize(const workload::Population& pop,
                                       uint64_t seed, uint64_t id) {
  return pop.sample(sim::Rng(seed).fork(id).fork(100));
}

ReproCase make_repro(const workload::Population& pop,
                     const CampaignConfig& cfg, uint64_t seed, uint64_t id,
                     const std::string& arm_name,
                     std::vector<std::string> expect) {
  ReproCase c;
  char buf[96];
  std::snprintf(buf, sizeof buf, "s%" PRIu64 "-c%" PRIu64 "-%s", seed, id,
                arm_slug(arm_name).c_str());
  c.name = buf;
  c.arm = arm_name;
  c.seed = seed;
  c.connection = id;
  c.limit = cfg.per_connection_limit;
  c.watchdog_rto_backoffs = cfg.watchdog_rto_backoffs;
  c.sample = materialize(pop, seed, id);
  c.expect = std::move(expect);
  return c;
}

std::vector<std::string> signature_of(const exp::QuarantineRecord& rec) {
  std::vector<std::string> kinds;
  for (const auto& v : rec.violations) kinds.push_back(tcp::to_string(v.kind));
  if (!rec.exception.empty()) kinds.push_back("exception");
  std::sort(kinds.begin(), kinds.end());
  kinds.erase(std::unique(kinds.begin(), kinds.end()), kinds.end());
  return kinds;
}

}  // namespace

std::vector<Divergence> diff_outcomes(
    const std::vector<exp::ArmResult>& arms) {
  std::vector<Divergence> out;
  if (arms.empty()) return out;
  const std::size_t n = arms[0].outcomes.size();
  for (const auto& arm : arms) {
    if (arm.outcomes.size() != n) {
      out.push_back({0, arm.name, "expected_mismatch",
                     "arms ran different connection counts"});
      return out;
    }
  }
  char buf[200];
  for (std::size_t i = 0; i < n; ++i) {
    const exp::ConnOutcome& ref = arms[0].outcomes[i];
    for (const auto& arm : arms) {
      const exp::ConnOutcome& o = arm.outcomes[i];
      // Common random numbers: the drawn workload is arm-independent.
      if (o.expected_bytes != ref.expected_bytes || o.id != ref.id) {
        std::snprintf(buf, sizeof buf,
                      "conn %" PRIu64 ": expected %" PRIu64
                      " bytes vs %" PRIu64 " in arm '%s'",
                      ref.id, ref.expected_bytes, o.expected_bytes,
                      arm.name.c_str());
        out.push_back({ref.id, arm.name, "expected_mismatch", buf});
        continue;
      }
      const bool finished = o.all_acked && o.app_finished;
      if (!finished && !o.aborted) {
        std::snprintf(buf, sizeof buf,
                      "conn %" PRIu64 " in arm '%s' neither completed nor "
                      "aborted (delivered %" PRIu64 "/%" PRIu64 ")",
                      o.id, arm.name.c_str(), o.delivered_bytes,
                      o.expected_bytes);
        out.push_back({o.id, arm.name, "not_terminated", buf});
      }
      if (finished && o.delivered_bytes != o.expected_bytes) {
        std::snprintf(buf, sizeof buf,
                      "conn %" PRIu64 " in arm '%s' completed but delivered "
                      "%" PRIu64 " of %" PRIu64 " bytes",
                      o.id, arm.name.c_str(), o.delivered_bytes,
                      o.expected_bytes);
        out.push_back({o.id, arm.name, "delivered_mismatch", buf});
      }
      if (o.delivered_bytes > o.expected_bytes) {
        std::snprintf(buf, sizeof buf,
                      "conn %" PRIu64 " in arm '%s' delivered %" PRIu64
                      " bytes beyond the %" PRIu64 "-byte workload",
                      o.id, arm.name.c_str(), o.delivered_bytes,
                      o.expected_bytes);
        out.push_back({o.id, arm.name, "over_delivered", buf});
      }
    }
  }
  return out;
}

CampaignResult run_campaign(const workload::Population& base,
                            const CampaignConfig& cfg) {
  CampaignResult result;
  TorturePopulation pop(base, cfg.profile);
  const std::vector<exp::ArmConfig> arms = {exp::ArmConfig::prr_arm(),
                                            exp::ArmConfig::rfc3517_arm(),
                                            exp::ArmConfig::linux_arm()};

  for (int s = 0; s < cfg.seeds; ++s) {
    const uint64_t seed = cfg.base_seed + static_cast<uint64_t>(s);

    exp::RunOptions opts;
    opts.connections = cfg.connections_per_seed;
    opts.seed = seed;
    opts.per_connection_limit = cfg.per_connection_limit;
    opts.threads = cfg.threads;
    opts.check_invariants = true;
    opts.torture_oracles = true;
    opts.watchdog_rto_backoffs = cfg.watchdog_rto_backoffs;
    opts.collect_outcomes = true;
    opts.scenario = "torture";

    std::vector<exp::ArmResult> results = exp::run_arms(pop, arms, opts);
    ++result.seeds_run;

    std::vector<CampaignFailure> found;
    for (const exp::ArmResult& arm : results) {
      result.connections_run += arm.connections_run;
      result.acks_checked += arm.acks_checked;
      result.violations += arm.invariant_violations;
      for (const exp::QuarantineRecord& rec : arm.quarantined) {
        CampaignFailure f;
        f.seed = seed;
        f.connection = rec.connection_id;
        f.arm = arm.name;
        f.kinds = signature_of(rec);
        f.summary = rec.summary();
        f.trace_json = rec.trace_json();
        f.repro = make_repro(pop, cfg, seed, rec.connection_id, arm.name,
                             f.kinds);
        found.push_back(std::move(f));
      }
    }
    for (const Divergence& d : diff_outcomes(results)) {
      CampaignFailure f;
      f.seed = seed;
      f.connection = d.connection;
      f.arm = d.arm;
      f.kinds = {d.kind};
      f.summary = d.detail;
      f.repro = make_repro(pop, cfg, seed, d.connection, d.arm, {d.kind});
      found.push_back(std::move(f));
    }

    for (CampaignFailure& f : found) {
      if (cfg.shrink_failures) {
        ShrinkOptions sopts;
        sopts.max_replays = cfg.shrink_max_replays;
        ShrinkResult shrunk = shrink(f.repro, sopts);
        f.shrink_replays = shrunk.replays;
        f.shrink_accepted = shrunk.accepted;
        f.repro_verified = shrunk.input_reproduced;
        if (shrunk.input_reproduced) f.repro = std::move(shrunk.minimized);
      } else {
        f.repro_verified = repro_reproduced(f.repro, run_repro(f.repro));
      }
      result.failures.push_back(std::move(f));
    }
  }
  return result;
}

std::string CampaignResult::summary_json() const {
  std::string out = "{\n";
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "  \"seeds_run\": %d,\n  \"connections_run\": %" PRIu64
                ",\n  \"acks_checked\": %" PRIu64
                ",\n  \"violations\": %" PRIu64 ",\n",
                seeds_run, connections_run, acks_checked, violations);
  out += buf;
  out += "  \"failures\": [";
  for (std::size_t i = 0; i < failures.size(); ++i) {
    const CampaignFailure& f = failures[i];
    out += i == 0 ? "\n" : ",\n";
    std::snprintf(buf, sizeof buf,
                  "    {\"seed\": %" PRIu64 ", \"connection\": %" PRIu64
                  ", \"arm\": ",
                  f.seed, f.connection);
    out += buf;
    out += obs::json_quote(f.arm);
    out += ", \"kinds\": [";
    for (std::size_t k = 0; k < f.kinds.size(); ++k) {
      if (k) out += ", ";
      out += obs::json_quote(f.kinds[k]);
    }
    std::snprintf(buf, sizeof buf,
                  "], \"repro_verified\": %s, \"shrink_replays\": %d, "
                  "\"shrink_accepted\": %d}",
                  f.repro_verified ? "true" : "false", f.shrink_replays,
                  f.shrink_accepted);
    out += buf;
  }
  out += failures.empty() ? "]\n" : "\n  ]\n";
  out += "}\n";
  return out;
}

}  // namespace prr::torture
