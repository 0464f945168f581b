// The torture engine end to end: grammar determinism, the oracle
// catalog (progress watchdog, termination, conservation), repro
// round-tripping, the delta-debugging shrinker, the cross-arm
// differential, and campaign/replay determinism (same seeds -> byte
// identical artifacts).
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "sim/rng.h"
#include "text_mutator.h"
#include "torture/campaign.h"
#include "torture/oracles.h"
#include "torture/pathology.h"
#include "torture/repro.h"
#include "torture/shrink.h"
#include "workload/web_workload.h"

namespace prr::torture {
namespace {

using namespace prr::sim::literals;

http::ResponseSpec resp(uint64_t bytes) {
  http::ResponseSpec r;
  r.bytes = bytes;
  return r;
}

// ---- pathology grammar ----

TEST(Pathology, DrawIsPureInProfileAndRng) {
  PathologyProfile p = PathologyProfile::standard();
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    PathologyDraw a = p.draw(sim::Rng(seed));
    PathologyDraw b = p.draw(sim::Rng(seed));
    EXPECT_EQ(a.renege_at.ns(), b.renege_at.ns());
    EXPECT_EQ(a.ack_loss_prob, b.ack_loss_prob);
    EXPECT_EQ(a.ack_stretch, b.ack_stretch);
    EXPECT_EQ(a.misbehavior.lie_sack_probability,
              b.misbehavior.lie_sack_probability);
    EXPECT_EQ(a.misbehavior.shrink_at.ns(), b.misbehavior.shrink_at.ns());
    EXPECT_EQ(a.misbehavior.corrupt_probability,
              b.misbehavior.corrupt_probability);
    EXPECT_EQ(a.faults.events().size(), b.faults.events().size());
  }
}

TEST(Pathology, FamiliesDrawIndependently) {
  // One bernoulli + sub-draw block per family regardless of activation:
  // disabling one family never perturbs another family's draw.
  PathologyProfile full = PathologyProfile::standard();
  PathologyProfile no_renege = full;
  no_renege.p_renege = 0.0;
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    PathologyDraw a = full.draw(sim::Rng(seed));
    PathologyDraw b = no_renege.draw(sim::Rng(seed));
    EXPECT_TRUE(b.renege_at.is_zero());
    // Every other family's outcome is untouched by the change.
    EXPECT_EQ(a.misbehavior.lie_sack_probability,
              b.misbehavior.lie_sack_probability);
    EXPECT_EQ(a.misbehavior.divide_factor, b.misbehavior.divide_factor);
    EXPECT_EQ(a.misbehavior.shrink_at.ns(), b.misbehavior.shrink_at.ns());
    EXPECT_EQ(a.ack_loss_prob, b.ack_loss_prob);
    EXPECT_EQ(a.faults.events().size(), b.faults.events().size());
  }
}

TEST(Pathology, SingleFamilyProfilesActivateOnlyTheirFamily) {
  for (uint64_t seed = 1; seed <= 30; ++seed) {
    PathologyDraw d = PathologyProfile::only_shrink().draw(sim::Rng(seed));
    EXPECT_TRUE(d.renege_at.is_zero());
    EXPECT_EQ(d.misbehavior.lie_sack_probability, 0.0);
    EXPECT_EQ(d.misbehavior.corrupt_probability, 0.0);
    if (!d.misbehavior.shrink_duration.is_zero()) {
      EXPECT_GE(d.misbehavior.shrink_rwnd_bytes, 1u);
    }
  }
}

TEST(Pathology, ApplyLayersOntoBaseSampleWithoutClobberingIt) {
  workload::ConnectionSample base;
  base.responses = {resp(10'000)};
  base.ack_loss_prob = 0.01;
  workload::ConnectionSample s = base;
  PathologyDraw d;
  d.renege_at = 700_ms;
  d.misbehavior.corrupt_probability = 0.5;
  d.apply(s);
  EXPECT_EQ(s.renege_at.ns(), (700_ms).ns());
  EXPECT_EQ(s.misbehavior.corrupt_probability, 0.5);
  // Untouched knobs keep the base sample's values.
  EXPECT_EQ(s.ack_loss_prob, 0.01);
  ASSERT_EQ(s.responses.size(), 1u);
  EXPECT_EQ(s.responses[0].bytes, 10'000u);
}

// ---- repro round-trip ----

ReproCase busy_case() {
  ReproCase c;
  c.name = "round-trip";
  c.arm = "RFC 3517";
  c.seed = 99;
  c.connection = 3;
  c.limit = 120_s;
  c.watchdog_rto_backoffs = 5;
  c.max_rto_backoffs = 9;
  c.renege_recovery = false;
  c.sample.rtt = 37_ms;
  c.sample.bandwidth = util::DataRate::mbps(2.5);
  c.sample.loss.p_good_to_bad = 0.0123456789012345;
  c.sample.outages = true;
  c.sample.ack_loss_prob = 0.07;
  c.sample.ack_stretch = 3;
  c.sample.renege_at = 812_ms;
  c.sample.misbehavior.lie_sack_probability = 0.031;
  c.sample.misbehavior.shrink_at = 400_ms;
  c.sample.misbehavior.shrink_duration = 2_s;
  c.sample.misbehavior.divide_factor = 4;
  c.sample.faults.add({1_s, net::FaultKind::kBlackout, 300_ms});
  c.sample.faults.add({3_s, net::FaultKind::kRttSpike, 500_ms, 4.0});
  c.sample.responses = {resp(50'000), resp(20'000)};
  c.sample.responses[1].gap_before = 50_ms;
  c.sample.responses[1].chunk_bytes = 4000;
  c.expect = {"no_forward_progress", "not_terminated"};
  return c;
}

TEST(Repro, TextRoundTripIsExact) {
  ReproCase c = busy_case();
  std::string text = to_text(c);
  ReproCase back;
  std::string err;
  ASSERT_TRUE(from_text(text, back, &err)) << err;
  // A second serialization must be byte-identical — the property the
  // corpus and the shrinker depend on.
  EXPECT_EQ(to_text(back), text);
  EXPECT_EQ(back.arm, "RFC 3517");
  EXPECT_EQ(back.seed, 99u);
  EXPECT_EQ(back.connection, 3u);
  EXPECT_FALSE(back.renege_recovery);
  EXPECT_EQ(back.sample.loss.p_good_to_bad, c.sample.loss.p_good_to_bad);
  EXPECT_EQ(back.sample.misbehavior.shrink_at.ns(),
            c.sample.misbehavior.shrink_at.ns());
  ASSERT_EQ(back.sample.faults.events().size(), 2u);
  EXPECT_EQ(back.sample.faults.events()[1].scale, 4.0);
  ASSERT_EQ(back.sample.responses.size(), 2u);
  EXPECT_EQ(back.sample.responses[1].chunk_bytes, 4000u);
  EXPECT_EQ(back.expect, c.expect);
}

TEST(Repro, MalformedInputIsRejectedWithLineNumbers) {
  ReproCase out;
  std::string err;
  EXPECT_FALSE(from_text("not a repro\n", out, &err));
  EXPECT_FALSE(err.empty());
  EXPECT_FALSE(from_text("prr-repro v1\nbogus_key = 3\n", out, &err));
  EXPECT_NE(err.find("2"), std::string::npos) << err;
  // Out-of-range values for the field's type, negative unsigned values,
  // and probabilities outside [0, 1] (nan and inf included).
  for (const char* bad : {
           "seed = -1",
           "seed = 12x",
           "seed = +7",
           "seed = 0x10",
           "seed = 18446744073709551616",
           "limit_ns = 5ms",
           "limit_ns = 9223372036854775808",
           "bandwidth_bps = 0",
           "bandwidth_bps = -8",
           "max_rto_backoffs = 4294967296",
           "watchdog_rto_backoffs = -2147483649",
           "queue_packets = -5",
           "ack_stretch = 4294967296",
           "mis_lie_span_bytes = -1",
           "mis_divide_factor = 4294967297",
           "loss_in_bad = nan",
           "loss_p_good_to_bad = 1.5",
           "ack_loss_prob = inf",
           "reorder_prob = -0.1",
           "mis_corrupt_prob = -nan",
           "fault = blackout 0 100 nan 0",
           "fault = queue_resize 0 0 1 -1",
           "response = -1 0 0 0 0",
       }) {
    err.clear();
    EXPECT_FALSE(from_text(std::string("prr-repro v1\nname = x\n") + bad +
                               "\n",
                           out, &err))
        << bad;
    EXPECT_NE(err.find("line 3"), std::string::npos) << bad << ": " << err;
  }
}

TEST(ReproFuzz, MutatedTextParsesStablyOrFailsCleanly) {
  const std::string seeds[] = {to_text(busy_case()), to_text(ReproCase{})};
  sim::Mt64 rng(6937);
  int parsed = 0, rejected = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    const std::string mutant =
        fuzz::mutate_text(seeds[trial % 2], "0123456789-.en#= \n", rng);
    ReproCase c;
    std::string err;
    if (!from_text(mutant, c, &err)) {
      EXPECT_FALSE(err.empty()) << mutant;
      ++rejected;
      continue;
    }
    ++parsed;
    const std::string once = to_text(c);
    ReproCase again;
    ASSERT_TRUE(from_text(once, again, &err)) << err << "\n" << once;
    ASSERT_EQ(to_text(again), once) << mutant;
  }
  // Both outcomes must be common, or the fuzz is not reaching the parser.
  EXPECT_GT(parsed, 150);
  EXPECT_GT(rejected, 2000);
}

TEST(Repro, SaveLoadRoundTrips) {
  ReproCase c = busy_case();
  std::string path = ::testing::TempDir() + "/round-trip.repro";
  std::string err;
  ASSERT_TRUE(save_repro(c, path, &err)) << err;
  ReproCase back;
  ASSERT_TRUE(load_repro(path, back, &err)) << err;
  EXPECT_EQ(to_text(back), to_text(c));
  std::remove(path.c_str());
}

// ---- oracles, exercised through real repro runs ----

TEST(Oracles, CleanConnectionTripsNothing) {
  ReproCase c;
  c.name = "clean";
  c.sample.responses = {resp(100'000)};
  exp::ReplayResult r = run_repro(c);
  EXPECT_TRUE(r.all_acked);
  EXPECT_TRUE(r.violations.empty());
  EXPECT_GT(r.acks_checked, 0u);
}

TEST(Oracles, ZeroWindowDeadlockIsReportedAsNoTermination) {
  // Defense off + permanently shrunk window: the event queue drains with
  // the flow unfinished — the exact deadlock the termination oracle is
  // for. With the defense on, the persist probes keep the flow alive.
  // The shrink window is finite, but that cannot save a prober-less
  // sender: once it stalls with nothing in flight, no ACK ever arrives
  // to report the reopened window.
  ReproCase c;
  c.name = "deadlock";
  c.zero_window_probes = false;
  c.sample.misbehavior.shrink_at = 400_ms;
  c.sample.misbehavior.shrink_duration = 5_s;
  c.sample.responses = {resp(400 * 1430)};
  exp::ReplayResult r = run_repro(c);
  EXPECT_FALSE(r.all_acked);
  bool no_termination = false;
  for (const auto& v : r.violations)
    if (v.kind == tcp::InvariantKind::kNoTermination) no_termination = true;
  EXPECT_TRUE(no_termination);

  // With probes on, the probe's ACK reports the restored window after
  // the shrink ends and the flow completes.
  c.zero_window_probes = true;
  exp::ReplayResult healthy = run_repro(c);
  EXPECT_TRUE(healthy.all_acked) << "window probes should rescue the flow";
  EXPECT_TRUE(healthy.violations.empty());
}

TEST(Oracles, RenegingWedgeIsReportedAsNoForwardProgress) {
  ReproCase c;
  std::string err;
  ASSERT_TRUE(load_repro(std::string(PRR_CORPUS_DIR) + "/reneging-wedge.repro",
                         c, &err))
      << err;
  exp::ReplayResult r = run_repro(c);
  bool stuck = false;
  for (const auto& v : r.violations)
    if (v.kind == tcp::InvariantKind::kNoForwardProgress) stuck = true;
  EXPECT_TRUE(stuck);

  // The defense (RFC 2018 reneging recovery) eliminates the wedge.
  c.renege_recovery = true;
  exp::ReplayResult healthy = run_repro(c);
  for (const auto& v : healthy.violations)
    ADD_FAILURE() << "[" << tcp::to_string(v.kind) << "] " << v.detail;
}

TEST(Oracles, HonestDeepBackoffIsNotFlagged) {
  // A long blackout causes consecutive RTO backoffs with zero progress —
  // but the path being down (and the sender retransmitting into it) must
  // not look like a wedge. Zero false positives on an honest stall.
  ReproCase c;
  c.name = "blackout";
  c.sample.faults.add({500_ms, net::FaultKind::kBlackout, 20_s});
  c.sample.responses = {resp(200 * 1430)};
  c.limit = 120_s;
  exp::ReplayResult r = run_repro(c);
  for (const auto& v : r.violations)
    ADD_FAILURE() << "[" << tcp::to_string(v.kind) << "] " << v.detail;
}

// ---- shrinker ----

TEST(Shrink, StripsEveryDecoyAndKeepsTheSignature) {
  // The deadlock case plus decoys the failure does not need: extra
  // responses, a lying-SACK pathology, a fault event, ACK loss. The
  // shrinker must remove all of them and still reproduce.
  ReproCase c;
  c.name = "decoys";
  c.zero_window_probes = false;
  c.sample.misbehavior.shrink_at = 400_ms;
  c.sample.misbehavior.shrink_duration = 3600_s;
  c.sample.misbehavior.lie_sack_probability = 0.02;  // decoy
  c.sample.ack_loss_prob = 0.05;                     // decoy
  c.sample.faults.add({2_s, net::FaultKind::kRttSpike, 200_ms, 3.0});
  c.sample.responses = {resp(400 * 1430), resp(100 * 1430)};  // 2nd: decoy

  ShrinkResult sr = shrink(c);
  ASSERT_TRUE(sr.input_reproduced);
  EXPECT_GT(sr.accepted, 0);
  const ReproCase& m = sr.minimized;
  EXPECT_EQ(m.sample.misbehavior.lie_sack_probability, 0.0);
  EXPECT_EQ(m.sample.ack_loss_prob, 0.0);
  EXPECT_TRUE(m.sample.faults.events().empty());
  EXPECT_EQ(m.sample.responses.size(), 1u);
  // The load-bearing pathology survives, and the minimized case still
  // exhibits the signature.
  EXPECT_FALSE(m.sample.misbehavior.shrink_duration.is_zero());
  EXPECT_TRUE(repro_reproduced(m, run_repro(m)));
}

TEST(Shrink, NonReproducingInputIsReturnedUnchanged) {
  ReproCase c;
  c.name = "healthy";
  c.sample.responses = {resp(20'000)};
  c.expect = {"no_termination"};  // never happens
  ShrinkResult sr = shrink(c);
  EXPECT_FALSE(sr.input_reproduced);
  EXPECT_EQ(sr.accepted, 0);
  EXPECT_EQ(to_text(sr.minimized), to_text(c));
}

TEST(Shrink, DerivesSignatureWhenExpectIsEmpty) {
  ReproCase c;
  c.name = "derive";
  c.zero_window_probes = false;
  c.sample.misbehavior.shrink_at = 400_ms;
  c.sample.misbehavior.shrink_duration = 3600_s;
  c.sample.responses = {resp(400 * 1430)};
  c.expect.clear();
  ShrinkResult sr = shrink(c);
  ASSERT_TRUE(sr.input_reproduced);
  EXPECT_FALSE(sr.minimized.expect.empty());
}

// ---- cross-arm differential ----

exp::ArmResult outcome_arm(const char* name,
                           std::vector<exp::ConnOutcome> outcomes) {
  exp::ArmResult r;
  r.name = name;
  r.outcomes = std::move(outcomes);
  return r;
}

exp::ConnOutcome finished(uint64_t id, uint64_t bytes) {
  exp::ConnOutcome o;
  o.id = id;
  o.expected_bytes = bytes;
  o.delivered_bytes = bytes;
  o.all_acked = true;
  o.app_finished = true;
  return o;
}

TEST(DiffOutcomes, IdenticalDeliveryIsClean) {
  std::vector<exp::ArmResult> arms;
  arms.push_back(outcome_arm("PRR", {finished(0, 1000), finished(1, 2000)}));
  arms.push_back(
      outcome_arm("RFC 3517", {finished(0, 1000), finished(1, 2000)}));
  EXPECT_TRUE(diff_outcomes(arms).empty());
}

TEST(DiffOutcomes, ShortDeliveryOnOneArmIsFlagged) {
  exp::ConnOutcome bad = finished(1, 2000);
  bad.delivered_bytes = 1500;  // claims completion, delivered short
  std::vector<exp::ArmResult> arms;
  arms.push_back(outcome_arm("PRR", {finished(0, 1000), finished(1, 2000)}));
  arms.push_back(outcome_arm("RFC 3517", {finished(0, 1000), bad}));
  std::vector<Divergence> d = diff_outcomes(arms);
  ASSERT_EQ(d.size(), 1u);
  EXPECT_EQ(d[0].connection, 1u);
  EXPECT_EQ(d[0].arm, "RFC 3517");
  EXPECT_EQ(d[0].kind, "delivered_mismatch");
}

TEST(DiffOutcomes, HungConnectionIsFlaggedAndCleanAbortIsNot) {
  exp::ConnOutcome hung = finished(0, 1000);
  hung.all_acked = false;
  hung.app_finished = false;
  hung.aborted = false;
  hung.delivered_bytes = 400;
  exp::ConnOutcome aborted = hung;
  aborted.aborted = true;
  std::vector<exp::ArmResult> arms;
  arms.push_back(outcome_arm("PRR", {hung}));
  arms.push_back(outcome_arm("RFC 3517", {aborted}));
  std::vector<Divergence> d = diff_outcomes(arms);
  ASSERT_EQ(d.size(), 1u);
  EXPECT_EQ(d[0].arm, "PRR");
  EXPECT_EQ(d[0].kind, "not_terminated");
}

// ---- campaign determinism ----

CampaignConfig smoke_config() {
  CampaignConfig cfg;
  cfg.seeds = 4;
  cfg.connections_per_seed = 3;
  cfg.per_connection_limit = 120_s;
  cfg.shrink_failures = false;
  return cfg;
}

TEST(Campaign, SummaryIsByteIdenticalAcrossRunsAndThreadCounts) {
  workload::WebWorkload base;
  CampaignConfig cfg = smoke_config();
  CampaignResult a = run_campaign(base, cfg);
  CampaignResult b = run_campaign(base, cfg);
  EXPECT_EQ(a.summary_json(), b.summary_json());
  cfg.threads = 4;
  CampaignResult c = run_campaign(base, cfg);
  EXPECT_EQ(a.summary_json(), c.summary_json());
  EXPECT_EQ(a.seeds_run, 4);
  EXPECT_GT(a.acks_checked, 0u);
}

TEST(Campaign, DefensesOnFindsNothingOnTheSmokeRange) {
  // The acceptance property CI's smoke job relies on: the shipped
  // defenses survive the standard pathology mix.
  workload::WebWorkload base;
  CampaignResult r = run_campaign(base, smoke_config());
  for (const auto& f : r.failures) ADD_FAILURE() << f.summary;
  EXPECT_EQ(r.seeds_run, smoke_config().seeds);
}

// ---- replay determinism (quarantine -> replay round trip) ----

TEST(Replay, InjectedQuarantineReplaysByteIdentically) {
  // Inject a synthetic violation so a quarantine record materializes,
  // then replay it twice: the replay must reproduce the original failure
  // and be deterministic down to the trace tail.
  workload::WebWorkload base;
  TorturePopulation pop(base, PathologyProfile::standard());
  exp::RunOptions opts;
  opts.connections = 3;
  opts.seed = 11;
  opts.per_connection_limit = 120_s;
  opts.check_invariants = true;
  opts.torture_oracles = true;
  opts.inject_violation_connection = 1;
  opts.inject_violation_on_ack = 5;
  exp::ArmConfig arm = exp::ArmConfig::prr_arm();
  exp::ArmResult res = exp::run_arm(pop, arm, opts);
  ASSERT_EQ(res.quarantined.size(), 1u);
  const exp::QuarantineRecord& rec = res.quarantined[0];
  EXPECT_EQ(rec.connection_id, 1u);
  EXPECT_EQ(rec.seed, 11u);

  exp::Experiment ex(pop, opts);
  exp::ReplayResult r1 = ex.replay(arm, rec);
  exp::ReplayResult r2 = ex.replay(arm, rec);
  EXPECT_TRUE(r1.reproduced(rec));
  ASSERT_EQ(r1.violations.size(), r2.violations.size());
  for (size_t i = 0; i < r1.violations.size(); ++i) {
    EXPECT_EQ(r1.violations[i].kind, r2.violations[i].kind);
    EXPECT_EQ(r1.violations[i].at.ns(), r2.violations[i].at.ns());
    EXPECT_EQ(r1.violations[i].detail, r2.violations[i].detail);
  }
  EXPECT_EQ(r1.acks_checked, r2.acks_checked);
  ASSERT_EQ(r1.trace_tail.size(), r2.trace_tail.size());
  for (size_t i = 0; i < r1.trace_tail.size(); ++i) {
    EXPECT_EQ(r1.trace_tail[i].at_ns, r2.trace_tail[i].at_ns);
    EXPECT_EQ(r1.trace_tail[i].type, r2.trace_tail[i].type);
    EXPECT_EQ(r1.trace_tail[i].a, r2.trace_tail[i].a);
    EXPECT_EQ(r1.trace_tail[i].b, r2.trace_tail[i].b);
  }
  // The original run's violation matches what the replay saw (the exact
  // seed + trace-geometry propagation satellite): same kind, same time.
  ASSERT_FALSE(rec.violations.empty());
  ASSERT_FALSE(r1.violations.empty());
  EXPECT_EQ(rec.violations[0].kind, r1.violations[0].kind);
  EXPECT_EQ(rec.violations[0].at.ns(), r1.violations[0].at.ns());
}

}  // namespace
}  // namespace prr::torture
