// Fault injection: mutable-link semantics, fault schedules (builders,
// determinism, describe), and the FaultInjector replaying time-varying
// path dynamics against live connections — including the two headline
// robustness properties: a blackout landing mid-fast-recovery ends in a
// clean recovery or a bounded RTO-backoff abort (never a wedged event
// queue), and a mid-flow RTT spike below the RTO floor never fires a
// spurious timeout.
#include <gtest/gtest.h>

#include <memory>

#include "net/fault_injector.h"
#include "net/fault_schedule.h"
#include "net/link.h"
#include "net/loss_model.h"
#include "sim/simulator.h"
#include "tcp/connection.h"

namespace prr::net {
namespace {

using namespace prr::sim::literals;

Segment data_seg(uint64_t seq, uint32_t len) {
  Segment s;
  s.seq = seq;
  s.len = len;
  return s;
}

// ---- mutable Link ----

TEST(MutableLink, RateChangeAppliesToNextSerialization) {
  sim::Simulator sim;
  std::vector<sim::Time> arrivals;
  Link::Config cfg;
  cfg.rate = util::DataRate::mbps(1.2);
  cfg.propagation_delay = 50_ms;
  Link link(sim, cfg, [&](Segment) { arrivals.push_back(sim.now()); });

  link.send(data_seg(0, 1000));
  // Halve the rate while the first segment is still serializing: the
  // in-flight segment keeps its old finish time, the next is slower.
  sim.schedule_in(1_ms, [&] { link.set_rate(util::DataRate::mbps(0.6)); });
  sim.schedule_in(2_ms, [&] { link.send(data_seg(1000, 1000)); });
  sim.run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_NEAR(arrivals[0].ms_d(), 6.933 + 50.0, 0.01);
  // Second segment serializes at 0.6 Mbps (13.867 ms) starting when the
  // first finishes at 6.933 ms.
  EXPECT_NEAR(arrivals[1].ms_d(), 6.933 + 13.867 + 50.0, 0.05);
}

TEST(MutableLink, PropagationDelayChangeAffectsSubsequentSegments) {
  sim::Simulator sim;
  std::vector<sim::Time> arrivals;
  Link::Config cfg;
  cfg.rate = util::DataRate::mbps(100);  // serialization negligible
  cfg.propagation_delay = 10_ms;
  Link link(sim, cfg, [&](Segment) { arrivals.push_back(sim.now()); });

  link.send(data_seg(0, 1000));
  sim.schedule_in(5_ms, [&] {
    link.set_propagation_delay(60_ms);
    link.send(data_seg(1000, 1000));
  });
  sim.run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_NEAR(arrivals[0].ms_d(), 10.0, 0.2);   // old delay
  EXPECT_NEAR(arrivals[1].ms_d(), 65.0, 0.2);   // new delay
  EXPECT_EQ(link.propagation_delay(), 60_ms);
}

TEST(MutableLink, QueueShrinkDropsTail) {
  sim::Simulator sim;
  int delivered = 0;
  Link::Config cfg;
  cfg.rate = util::DataRate::mbps(1.2);
  cfg.propagation_delay = 1_ms;
  cfg.queue_limit_packets = 10;
  Link link(sim, cfg, [&](Segment) { ++delivered; });

  // One serializing + 8 queued.
  for (int i = 0; i < 9; ++i) link.send(data_seg(i * 1000, 1000));
  link.set_queue_limit(3);
  EXPECT_EQ(link.queue_limit(), 3u);
  sim.run();
  // Serializing segment + 3 surviving queued segments deliver.
  EXPECT_EQ(delivered, 4);
  EXPECT_EQ(link.stats().dropped_queue, 5u);
}

TEST(MutableLink, BlackoutDropsAtEndOfSerialization) {
  sim::Simulator sim;
  int delivered = 0;
  Link::Config cfg;
  cfg.rate = util::DataRate::mbps(1.2);
  cfg.propagation_delay = 1_ms;
  Link link(sim, cfg, [&](Segment) { ++delivered; });

  for (int i = 0; i < 4; ++i) link.send(data_seg(i * 1000, 1000));
  // Dark from 8 ms to 16 ms: segment 1 (finishes ~6.9 ms) survives,
  // segment 2 (~13.9 ms) dies crossing the link, segments 3-4 (~20.8,
  // 27.7 ms) survive.
  sim.schedule_in(8_ms, [&] { link.set_blackout(true); });
  sim.schedule_in(16_ms, [&] { link.set_blackout(false); });
  sim.run();
  EXPECT_EQ(delivered, 3);
  EXPECT_EQ(link.stats().dropped_blackout, 1u);
}

// ---- FaultSchedule ----

TEST(FaultSchedule, BuildersProduceSortedEvents) {
  FaultSchedule s = FaultSchedule::blackout(2_s, 500_ms);
  s.merge(FaultSchedule::rtt_spike(1_s, 3.0, 2_s));
  s.merge(FaultSchedule::queue_resize(3_s, 16));
  ASSERT_EQ(s.size(), 3u);
  EXPECT_EQ(s.events()[0].kind, FaultKind::kRttSpike);
  EXPECT_EQ(s.events()[1].kind, FaultKind::kBlackout);
  EXPECT_EQ(s.events()[2].kind, FaultKind::kQueueResize);
  for (std::size_t i = 1; i < s.size(); ++i) {
    EXPECT_GE(s.events()[i].at, s.events()[i - 1].at);
  }
}

TEST(FaultSchedule, FlapExpandsToRepeats) {
  FaultSchedule s = FaultSchedule::flap(1_s, 3, 200_ms, 300_ms);
  ASSERT_EQ(s.size(), 3u);
  EXPECT_EQ(s.events()[0].at, 1_s);
  EXPECT_EQ(s.events()[1].at, 1_s + 200_ms + 300_ms);
  EXPECT_EQ(s.events()[2].at, 1_s + 2 * (200_ms + 300_ms));
  for (const auto& e : s.events()) {
    EXPECT_EQ(e.kind, FaultKind::kBlackout);
    EXPECT_EQ(e.duration, 200_ms);
  }
}

TEST(FaultSchedule, RandomIsDeterministicInSeed) {
  FaultProfile profile;
  profile.p_blackout = 0.6;
  profile.p_rtt_spike = 0.6;
  profile.p_bandwidth_shift = 0.6;
  profile.p_queue_resize = 0.6;
  profile.p_ack_outage = 0.6;
  profile.p_receiver_stall = 0.6;
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    FaultSchedule a = FaultSchedule::random(profile, sim::Rng(seed));
    FaultSchedule b = FaultSchedule::random(profile, sim::Rng(seed));
    ASSERT_EQ(a.size(), b.size()) << seed;
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a.events()[i].at, b.events()[i].at);
      EXPECT_EQ(a.events()[i].kind, b.events()[i].kind);
      EXPECT_EQ(a.events()[i].duration, b.events()[i].duration);
      EXPECT_DOUBLE_EQ(a.events()[i].scale, b.events()[i].scale);
      EXPECT_EQ(a.events()[i].queue_limit_packets,
                b.events()[i].queue_limit_packets);
    }
    EXPECT_EQ(a.describe(), b.describe());
  }
}

TEST(FaultSchedule, RandomRespectsProfileRanges) {
  FaultProfile profile;
  profile.p_blackout = 1.0;
  profile.p_rtt_spike = 1.0;
  for (uint64_t seed = 1; seed <= 30; ++seed) {
    FaultSchedule s = FaultSchedule::random(profile, sim::Rng(seed));
    EXPECT_FALSE(s.empty());
    for (const auto& e : s.events()) {
      EXPECT_GE(e.at, profile.horizon / 8);
      EXPECT_LE(e.at, profile.horizon);
      if (e.kind == FaultKind::kBlackout) {
        EXPECT_GE(e.duration, profile.blackout_min);
        EXPECT_LE(e.duration, profile.blackout_max);
      } else if (e.kind == FaultKind::kRttSpike) {
        EXPECT_GE(e.scale, profile.rtt_scale_min);
        EXPECT_LE(e.scale, profile.rtt_scale_max);
      }
    }
  }
}

TEST(FaultSchedule, DescribeNamesEveryEvent) {
  FaultSchedule s = FaultSchedule::blackout(1_s, 500_ms);
  s.merge(FaultSchedule::bandwidth_shift(2_s, 0.5));
  const std::string d = s.describe();
  EXPECT_NE(d.find("blackout"), std::string::npos);
  EXPECT_NE(d.find("bw_shift"), std::string::npos);
  EXPECT_EQ(FaultSchedule().describe(), "(none)");
}

// ---- FaultInjector on live connections ----

tcp::ConnectionConfig chaos_config() {
  tcp::ConnectionConfig cfg;
  cfg.sender.mss = 1000;
  cfg.sender.handshake_rtt = 100_ms;
  cfg.path = net::Path::Config::symmetric(util::DataRate::mbps(1.2),
                                          100_ms, 100);
  return cfg;
}

TEST(FaultInjector, BlackoutDuringFastRecoveryEndsCleanOrBoundedAbort) {
  // Drop two segments to force fast recovery, then black out the data
  // link right as recovery is underway. The connection must either
  // recover and finish, or abort after the configured RTO backoffs —
  // and in every case the event queue must drain (no wedged timers).
  for (int backoffs : {3, 7}) {
    sim::Simulator sim;
    tcp::ConnectionConfig cfg = chaos_config();
    cfg.sender.max_rto_backoffs = backoffs;
    tcp::Connection conn(sim, cfg, sim::Rng(11));
    const tcp::Metrics& m = conn.sender().metrics();
    conn.path().data_link().set_loss_model(
        std::make_unique<net::DeterministicLoss>(std::set<uint64_t>{2, 3}));

    FaultInjector injector(sim, conn.path(),
                           FaultSchedule::blackout(350_ms, 2_s));
    injector.arm();

    conn.write(40'000);
    sim.run(sim::Time::seconds(600));

    EXPECT_EQ(injector.stats().blackouts, 1u);
    EXPECT_GT(m.fast_recovery_events, 0u);
    if (conn.sender().aborted()) {
      EXPECT_LE(m.timeouts_total,
                static_cast<uint64_t>(backoffs) + 2)  // +RTO per write burst
          << "backoffs=" << backoffs;
    } else {
      EXPECT_TRUE(conn.sender().all_acked()) << "backoffs=" << backoffs;
    }
    EXPECT_TRUE(sim.idle()) << "event queue wedged, backoffs=" << backoffs;
    EXPECT_FALSE(conn.sender().loss_timers_pending());
  }
}

TEST(FaultInjector, ShortBlackoutRecoversWithoutAbort) {
  sim::Simulator sim;
  tcp::Connection conn(sim, chaos_config(), sim::Rng(12));
  FaultInjector injector(sim, conn.path(),
                         FaultSchedule::blackout(300_ms, 400_ms));
  injector.arm();
  conn.write(60'000);
  sim.run(sim::Time::seconds(120));
  EXPECT_FALSE(conn.sender().aborted());
  EXPECT_TRUE(conn.sender().all_acked());
  EXPECT_TRUE(sim.idle());
}

TEST(FaultInjector, RttSpikeBelowRtoFloorFiresNoSpuriousTimeout) {
  // RFC 6298 keeps RTO >= 200 ms here; a 100 ms RTT spiked x1.8 stays
  // at 180 ms < RTO, so a well-formed timer must never fire: zero
  // timeouts, no retransmissions of any kind.
  sim::Simulator sim;
  tcp::Connection conn(sim, chaos_config(), sim::Rng(13));
  const tcp::Metrics& m = conn.sender().metrics();
  FaultInjector injector(sim, conn.path(),
                         FaultSchedule::rtt_spike(500_ms, 1.8, 3_s));
  injector.arm();
  conn.write(100'000);
  sim.run(sim::Time::seconds(120));
  EXPECT_TRUE(conn.sender().all_acked());
  EXPECT_EQ(m.timeouts_total, 0u);
  EXPECT_EQ(m.retransmits_total, 0u);
  EXPECT_EQ(injector.stats().rtt_spikes, 1u);
  // The spike ended: both directions are back at the base delay.
  EXPECT_EQ(conn.path().data_link().propagation_delay(), 50_ms);
  EXPECT_EQ(conn.path().ack_link().propagation_delay(), 50_ms);
}

TEST(FaultInjector, BandwidthShiftCompletesTransfer) {
  sim::Simulator sim;
  tcp::Connection conn(sim, chaos_config(), sim::Rng(14));
  FaultInjector injector(sim, conn.path(),
                         FaultSchedule::bandwidth_shift(400_ms, 0.25));
  injector.arm();
  conn.write(60'000);
  sim.run(sim::Time::seconds(300));
  EXPECT_TRUE(conn.sender().all_acked());
  EXPECT_TRUE(sim.idle());
  EXPECT_NEAR(conn.path().data_link().rate().bits_per_second(),
              util::DataRate::mbps(1.2).bits_per_second() * 0.25, 1.0);
}

TEST(FaultInjector, AckOutageSurvivable) {
  sim::Simulator sim;
  tcp::ConnectionConfig cfg = chaos_config();
  cfg.sender.max_rto_backoffs = 10;
  tcp::Connection conn(sim, cfg, sim::Rng(15));
  FaultInjector injector(sim, conn.path(),
                         FaultSchedule::ack_outage(300_ms, 600_ms));
  injector.arm();
  conn.write(60'000);
  sim.run(sim::Time::seconds(300));
  EXPECT_TRUE(conn.sender().all_acked());
  EXPECT_TRUE(sim.idle());
  EXPECT_EQ(injector.stats().ack_outages, 1u);
}

TEST(FaultInjector, ReceiverStallHoldsThenReleasesNewestAck) {
  sim::Simulator sim;
  tcp::ConnectionConfig cfg = chaos_config();
  cfg.sender.max_rto_backoffs = 10;
  tcp::Connection conn(sim, cfg, sim::Rng(16));
  FaultInjector injector(sim, conn.path(),
                         FaultSchedule::receiver_stall(300_ms, 700_ms));
  injector.arm();
  conn.write(60'000);
  sim.run(sim::Time::seconds(300));
  EXPECT_TRUE(conn.sender().all_acked());
  EXPECT_TRUE(sim.idle());
  EXPECT_FALSE(conn.path().ack_stalled());
  EXPECT_EQ(injector.stats().receiver_stalls, 1u);
}

TEST(FaultInjector, OverlappingFlapsDoNotClearEachOthersGate) {
  // Two overlapping dark periods: the link must stay dark until the
  // later one ends (depth-counted), then everything heals.
  sim::Simulator sim;
  tcp::ConnectionConfig cfg = chaos_config();
  cfg.sender.max_rto_backoffs = 10;
  tcp::Connection conn(sim, cfg, sim::Rng(17));
  FaultSchedule s = FaultSchedule::blackout(300_ms, 1_s);
  s.merge(FaultSchedule::blackout(800_ms, 1_s));  // overlaps the first
  FaultInjector injector(sim, conn.path(), s);
  injector.arm();
  bool dark_at_1100 = false;
  sim.schedule_at(sim::Time::milliseconds(1100),
                  [&] { dark_at_1100 = conn.path().data_link().blackout(); });
  conn.write(30'000);
  sim.run(sim::Time::seconds(300));
  // 1.1 s is after the first blackout's end but inside the second.
  EXPECT_TRUE(dark_at_1100);
  EXPECT_FALSE(conn.path().data_link().blackout());
  EXPECT_TRUE(conn.sender().all_acked());
  EXPECT_TRUE(sim.idle());
}

TEST(FaultInjector, EverythingProfileNeverWedgesTheQueue) {
  // Randomized all-family schedules across many seeds: whatever happens,
  // the connection ends (completed or aborted) with a drained queue.
  FaultProfile profile;
  profile.p_blackout = 0.7;
  profile.flap_repeats = 3;
  profile.p_bandwidth_shift = 0.7;
  profile.p_rtt_spike = 0.7;
  profile.p_queue_resize = 0.7;
  profile.p_ack_outage = 0.5;
  profile.p_receiver_stall = 0.5;
  for (uint64_t seed = 1; seed <= 25; ++seed) {
    sim::Simulator sim;
    tcp::Connection conn(sim, chaos_config(), sim::Rng(seed));
    FaultInjector injector(
        sim, conn.path(),
        FaultSchedule::random(profile, sim::Rng(seed).fork(0xFA17)));
    injector.arm();
    conn.write(80'000);
    sim.run(sim::Time::seconds(600));
    EXPECT_TRUE(conn.sender().all_acked() || conn.sender().aborted())
        << "seed " << seed;
    EXPECT_TRUE(sim.idle()) << "seed " << seed;
    EXPECT_FALSE(conn.sender().loss_timers_pending()) << "seed " << seed;
  }
}

}  // namespace
}  // namespace prr::net
