// Batch delivery (DESIGN.md §12): net::Link dispatches contiguous ACK
// trains inline and Timer coalesces per-ACK rearms, yet every callback
// must run at the identical clock value and in the identical order as
// in per-event mode. Each test runs the same script per-event (the
// reference) and batched, and asserts the observation logs are
// byte-identical.
#include <algorithm>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "net/link.h"
#include "sim/simulator.h"
#include "sim/time.h"

namespace prr {
namespace {

using sim::Time;

// One dispatched event as observed by a test: its fire time and a label
// identifying which scheduled callback fired.
struct Obs {
  int64_t at_ns;
  int label;
  bool operator==(const Obs&) const = default;
};

net::Segment make_seg(uint64_t id) {
  net::Segment s;
  s.seq = id;
  s.len = 100;
  return s;
}

// Sends a burst of segments (which serialize back-to-back into a
// contiguous propagation train) and records each delivery.
std::vector<Obs> link_train(bool batch) {
  sim::Simulator sim;
  sim.set_batch_delivery(batch);
  std::vector<Obs> log;
  net::Link::Config lc;
  lc.rate = util::DataRate::mbps(100);
  lc.propagation_delay = Time::milliseconds(5);
  net::Link link(sim, lc, [&](net::Segment&& seg) {
    log.push_back(Obs{sim.now().ns(), static_cast<int>(seg.seq)});
  });
  for (uint64_t i = 0; i < 16; ++i) link.send(make_seg(i));
  sim.run();
  return log;
}

TEST(BatchDelivery, AckTrainIdenticalAcrossCombos) {
  const auto want = link_train(false);
  EXPECT_EQ(want.size(), 16u);
  EXPECT_EQ(link_train(true), want);
}

// A timer event cancelled by a delivery inside a draining batch: the
// cancel must take effect identically whether the canceller ran from a
// batched inline dispatch or its own queue event.
std::vector<Obs> cancel_inside_batch(bool batch) {
  sim::Simulator sim;
  sim.set_batch_delivery(batch);
  std::vector<Obs> log;
  net::Link::Config lc;
  lc.rate = util::DataRate::mbps(100);
  lc.propagation_delay = Time::milliseconds(5);
  // A timer armed between the train's delivery timestamps; delivery #3
  // stops it, so it must never fire — and one armed after the train that
  // must still fire.
  sim::Timer victim(sim, [&] { log.push_back({sim.now().ns(), -1}); });
  sim::Timer survivor(sim, [&] { log.push_back({sim.now().ns(), -2}); });
  net::Link link(sim, lc, [&](net::Segment&& seg) {
    log.push_back(Obs{sim.now().ns(), static_cast<int>(seg.seq)});
    if (seg.seq == 3) victim.stop();
  });
  for (uint64_t i = 0; i < 8; ++i) link.send(make_seg(i));
  // The victim expires between delivery 5 and 6 (inside the batch); the
  // survivor a millisecond after the train.
  victim.start(Time::milliseconds(5) + Time::microseconds(45));
  survivor.start(Time::milliseconds(7));
  sim.run();
  return log;
}

TEST(BatchDelivery, CancelInsideDrainingBatch) {
  const auto want = cancel_inside_batch(false);
  // The victim must not appear; the survivor must.
  for (const Obs& o : want) EXPECT_NE(o.label, -1);
  EXPECT_TRUE(std::any_of(want.begin(), want.end(),
                          [](const Obs& o) { return o.label == -2; }));
  EXPECT_EQ(cancel_inside_batch(true), want);
}

// Link reconfiguration (bandwidth + propagation delay fault) landing
// mid-train: the rate change applies from the next serialization, the
// delay shrink makes later segments overtake earlier ones (route
// change), and both modes must agree on the resulting delivery order.
std::vector<Obs> reconfig_mid_train(bool batch) {
  sim::Simulator sim;
  sim.set_batch_delivery(batch);
  std::vector<Obs> log;
  net::Link::Config lc;
  lc.rate = util::DataRate::mbps(50);
  lc.propagation_delay = Time::milliseconds(10);
  net::Link link(sim, lc, [&](net::Segment&& seg) {
    log.push_back(Obs{sim.now().ns(), static_cast<int>(seg.seq)});
  });
  for (uint64_t i = 0; i < 12; ++i) link.send(make_seg(i));
  // Mid-train fault: bandwidth drops, propagation delay shrinks to a
  // tenth — segments serialized after this overtake ones still
  // propagating under the old delay.
  sim.schedule_in(Time::microseconds(100), [&] {
    link.set_rate(util::DataRate::mbps(10));
    link.set_propagation_delay(Time::milliseconds(1));
  });
  sim.run();
  return log;
}

TEST(BatchDelivery, LinkReconfigLandsMidTrain) {
  const auto want = reconfig_mid_train(false);
  EXPECT_EQ(want.size(), 12u);
  // The shrink must actually reorder deliveries, or the test tests
  // nothing: some later-sent segment arrives before an earlier one.
  bool reordered = false;
  for (std::size_t i = 1; i < want.size(); ++i) {
    if (want[i].label < want[i - 1].label) reordered = true;
  }
  EXPECT_TRUE(reordered);
  EXPECT_EQ(reconfig_mid_train(true), want);
}

// Coalesced timer rearms (the sender's per-ACK RTO pattern): a timer
// re-armed on every delivery of a train must fire at exactly the
// per-event expiry in both modes, and pending()/expiry() must read
// identically while deferred.
std::vector<Obs> coalesced_rearm(bool batch) {
  sim::Simulator sim;
  sim.set_batch_delivery(batch);
  std::vector<Obs> log;
  net::Link::Config lc;
  lc.rate = util::DataRate::mbps(100);
  lc.propagation_delay = Time::milliseconds(2);
  sim::Timer rto(sim, [&] { log.push_back({sim.now().ns(), -100}); });
  net::Link link(sim, lc, [&](net::Segment&& seg) {
    log.push_back(Obs{sim.now().ns(), static_cast<int>(seg.seq)});
    rto.start_coalesced(Time::milliseconds(3));
    EXPECT_TRUE(rto.pending());
    EXPECT_EQ(rto.expiry(), sim.now() + Time::milliseconds(3));
  });
  for (uint64_t i = 0; i < 10; ++i) link.send(make_seg(i));
  sim.run();
  return log;
}

TEST(BatchDelivery, CoalescedRearmFiresAtPerEventExpiry) {
  const auto want = coalesced_rearm(false);
  // Exactly one RTO firing, after the last delivery.
  EXPECT_EQ(want.back().label, -100);
  EXPECT_EQ(std::count_if(want.begin(), want.end(),
                          [](const Obs& o) { return o.label == -100; }),
            1);
  EXPECT_EQ(coalesced_rearm(true), want);
}

}  // namespace
}  // namespace prr
