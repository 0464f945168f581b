#include "net/link.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "net/path.h"

namespace prr::net {
namespace {

using namespace prr::sim::literals;

Segment data_seg(uint64_t seq, uint32_t len) {
  Segment s;
  s.seq = seq;
  s.len = len;
  return s;
}

TEST(Link, DeliveryIsSerializationPlusPropagation) {
  sim::Simulator sim;
  std::vector<sim::Time> arrivals;
  Link::Config cfg;
  cfg.rate = util::DataRate::mbps(1.2);
  cfg.propagation_delay = 50_ms;
  Link link(sim, cfg, [&](Segment) { arrivals.push_back(sim.now()); });

  // 1040 wire bytes at 1.2 Mbps = 6.933 ms serialization.
  link.send(data_seg(0, 1000));
  sim.run();
  ASSERT_EQ(arrivals.size(), 1u);
  EXPECT_NEAR(arrivals[0].ms_d(), 6.933 + 50.0, 0.01);
}

TEST(Link, BackToBackSegmentsQueueBehindEachOther) {
  sim::Simulator sim;
  std::vector<sim::Time> arrivals;
  Link::Config cfg;
  cfg.rate = util::DataRate::mbps(1.2);
  cfg.propagation_delay = 50_ms;
  Link link(sim, cfg, [&](Segment) { arrivals.push_back(sim.now()); });

  for (int i = 0; i < 5; ++i) link.send(data_seg(i * 1000, 1000));
  sim.run();
  ASSERT_EQ(arrivals.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_NEAR(arrivals[i].ms_d(), 6.933 * (i + 1) + 50.0, 0.05) << i;
  }
}

TEST(Link, QueueOverflowDropsTail) {
  sim::Simulator sim;
  int delivered = 0;
  Link::Config cfg;
  cfg.rate = util::DataRate::mbps(1.2);
  cfg.propagation_delay = 1_ms;
  cfg.queue_limit_packets = 3;
  Link link(sim, cfg, [&](Segment) { ++delivered; });

  for (int i = 0; i < 10; ++i) link.send(data_seg(i * 1000, 1000));
  sim.run();
  // 1 in service + 3 queued survive.
  EXPECT_EQ(delivered, 4);
  EXPECT_EQ(link.stats().dropped_queue, 6u);
}

TEST(Link, LossModelDropsAreCounted) {
  sim::Simulator sim;
  int delivered = 0;
  Link::Config cfg;
  Link link(sim, cfg, [&](Segment) { ++delivered; });
  link.set_loss_model(std::make_unique<DeterministicLoss>(
      std::set<uint64_t>{2, 3}));
  for (int i = 0; i < 5; ++i) link.send(data_seg(i * 1000, 1000));
  sim.run();
  EXPECT_EQ(delivered, 3);
  EXPECT_EQ(link.stats().dropped_loss_model, 2u);
}

TEST(Link, AckWireSizeIncludesSackOptions) {
  Segment ack;
  ack.is_ack = true;
  EXPECT_EQ(ack.wire_size(), 40u);
  ack.sacks.push_back({0, 1000});
  ack.sacks.push_back({2000, 3000});
  EXPECT_EQ(ack.wire_size(), 40u + 2 + 16);
  ack.dsack = SackBlock{0, 500};
  EXPECT_EQ(ack.wire_size(), 40u + 2 + 24);
}

TEST(Segment, FifthSackBlockIsRejected) {
  Segment ack;
  ack.is_ack = true;
  for (uint64_t i = 0; i < SackList::kMaxBlocks; ++i) {
    ack.sacks.push_back({i * 2000, i * 2000 + 1000});
  }
  // Past the RFC 2018 wire cap the list throws instead of truncating or
  // spilling to the heap, and keeps the four blocks it has.
  EXPECT_THROW(ack.sacks.push_back({9000, 10000}), std::length_error);
  ASSERT_EQ(ack.sacks.size(), 4u);
  EXPECT_EQ(ack.sacks[3], (SackBlock{6000, 7000}));

  const std::vector<SackBlock> five(5, SackBlock{0, 1000});
  Segment other;
  EXPECT_THROW(other.sacks.assign(five.begin(), five.end()),
               std::length_error);
  other.sacks.assign(five.begin(), five.begin() + 2);
  SackList two;
  two.push_back({0, 1000});
  two.push_back({0, 1000});
  EXPECT_EQ(other.sacks, two);
  two[1].end = 999;
  EXPECT_FALSE(other.sacks == two);
}

// A sink that sends on the very link delivering to it: the sends grow
// the slot pool while the sink still reads its segment in place, and the
// delivered segment itself can be sent straight back.
TEST(Link, SinkMaySendOnItsOwnLink) {
  for (const bool batch : {false, true}) {
    sim::Simulator sim;
    sim.set_batch_delivery(batch);
    Link::Config cfg;
    cfg.propagation_delay = 1_ms;
    Link* self = nullptr;
    std::vector<uint64_t> seen;
    bool bounced = false;
    Link link(sim, cfg, [&](Segment&& s) {
      if (s.seq == 0 && seen.empty()) {
        for (uint64_t k = 1; k <= 40; ++k) {
          self->send(data_seg(k * 1000, 100));
        }
      }
      seen.push_back(s.seq);  // read after the sends above grew the pool
      if (s.seq == 40'000 && !bounced) {
        bounced = true;
        self->send(std::move(s));
      }
    });
    self = &link;
    link.send(data_seg(0, 100));
    sim.run();
    ASSERT_EQ(seen.size(), 42u) << "batch=" << batch;
    for (uint64_t k = 0; k <= 40; ++k) EXPECT_EQ(seen[k], k * 1000) << k;
    EXPECT_EQ(seen[41], 40'000u);
    EXPECT_EQ(link.stats().delivered, 42u);
  }
}

TEST(Path, SymmetricConfigSplitsRtt) {
  auto cfg = Path::Config::symmetric(util::DataRate::mbps(10), 100_ms, 50);
  EXPECT_EQ(cfg.data_link.propagation_delay.ms(), 50);
  EXPECT_EQ(cfg.ack_link.propagation_delay.ms(), 50);
  EXPECT_EQ(cfg.data_link.queue_limit_packets, 50u);
}

TEST(Path, RoundTripThroughBothLinks) {
  sim::Simulator sim;
  auto cfg = Path::Config::symmetric(util::DataRate::mbps(1.2), 100_ms, 50);
  Path path(sim, cfg, sim::Rng(7));
  sim::Time data_arrival, ack_arrival;
  path.set_data_sink([&](Segment) {
    data_arrival = sim.now();
    Segment ack;
    ack.is_ack = true;
    ack.ack = 1000;
    path.send_ack(std::move(ack));
  });
  path.set_ack_sink([&](Segment) { ack_arrival = sim.now(); });
  path.send_data(data_seg(0, 1000));
  sim.run();
  EXPECT_NEAR(data_arrival.ms_d(), 56.9, 0.2);
  // ACK: ~0 serialization at 100 Mbps + 50 ms back.
  EXPECT_NEAR(ack_arrival.ms_d(), 106.9, 0.3);
}

TEST(Path, KillClientSilencesAcks) {
  sim::Simulator sim;
  auto cfg = Path::Config::symmetric(util::DataRate::mbps(10), 10_ms, 50);
  Path path(sim, cfg, sim::Rng(7));
  int acks = 0;
  path.set_data_sink([&](Segment) {});
  path.set_ack_sink([&](Segment) { ++acks; });
  path.kill_client();
  Segment ack;
  ack.is_ack = true;
  path.send_ack(std::move(ack));
  sim.run();
  EXPECT_EQ(acks, 0);
}

}  // namespace
}  // namespace prr::net
