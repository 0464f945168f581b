// Misbehaving-endpoint models (net/misbehavior.h): each pathology's wire
// transform in isolation — lying/duplicated SACK blocks, suppression
// windows, divided ACKs, duplication, adjacent reordering, receiver
// window shrinking, corrupted fields — plus determinism of the whole
// transform under a fixed Rng.
#include "net/misbehavior.h"

#include <gtest/gtest.h>

#include <vector>

namespace prr::net {
namespace {

using namespace prr::sim::literals;

Segment ack(uint64_t a, uint64_t rwnd = 65535) {
  Segment s;
  s.is_ack = true;
  s.ack = a;
  s.rwnd = rwnd;
  return s;
}

Segment sacked(uint64_t a, uint64_t s0, uint64_t e0) {
  Segment s = ack(a);
  s.sacks.push_back({s0, e0});
  return s;
}

TEST(Misbehavior, PassThroughWhenInactive) {
  sim::Simulator sim;
  std::vector<Segment> out;
  AckMisbehaver m(sim, MisbehaviorConfig{}, sim::Rng(1),
                  [&](Segment&& s) { out.push_back(std::move(s)); });
  m.process(sacked(1000, 3000, 4000));
  sim.run();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].ack, 1000u);
  ASSERT_EQ(out[0].sacks.size(), 1u);
  EXPECT_EQ(out[0].sacks[0], (SackBlock{3000, 4000}));
  EXPECT_FALSE(MisbehaviorConfig{}.any_active());
}

TEST(Misbehavior, LyingSackWidensNewestBlock) {
  sim::Simulator sim;
  std::vector<Segment> out;
  MisbehaviorConfig cfg;
  cfg.lie_sack_probability = 1.0;
  cfg.lie_span_bytes = 500;
  AckMisbehaver m(sim, cfg, sim::Rng(1),
                  [&](Segment&& s) { out.push_back(std::move(s)); });
  m.process(sacked(1000, 3000, 4000));
  sim.run();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].sacks[0].end, 4500u);  // claims 500 undelivered bytes
  EXPECT_EQ(m.stats().sack_lies, 1u);
}

TEST(Misbehavior, DupSackRepeatsBlockWithinWireCap) {
  sim::Simulator sim;
  std::vector<Segment> out;
  MisbehaviorConfig cfg;
  cfg.dup_sack_probability = 1.0;
  AckMisbehaver m(sim, cfg, sim::Rng(1),
                  [&](Segment&& s) { out.push_back(std::move(s)); });
  m.process(sacked(1000, 3000, 4000));
  sim.run();
  ASSERT_EQ(out.size(), 1u);
  ASSERT_EQ(out[0].sacks.size(), 2u);
  EXPECT_EQ(out[0].sacks[0], out[0].sacks[1]);
  EXPECT_EQ(m.stats().sack_dups, 1u);

  // At the wire cap of 4 blocks there is no room for a duplicate.
  out.clear();
  Segment full = ack(1000);
  for (uint64_t i = 0; i < 4; ++i)
    full.sacks.push_back({3000 + i * 2000, 4000 + i * 2000});
  m.process(std::move(full));
  sim.run();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].sacks.size(), 4u);
}

// A full 4-block ACK through every SACK-touching transform at once
// (lie, duplicate, corrupt, divide, duplicate the ACK, reorder): the
// fixed SACK list throws on a fifth block, so reaching the end at all
// proves no transform pushes past the wire cap, and the ACK that
// carries the blocks still carries exactly 4.
TEST(Misbehavior, EveryTransformAtTheWireCapEmitsFourBlocks) {
  sim::Simulator sim;
  std::vector<Segment> out;
  MisbehaviorConfig cfg;
  cfg.lie_sack_probability = 1.0;
  cfg.dup_sack_probability = 1.0;
  cfg.corrupt_probability = 1.0;
  cfg.divide_factor = 4;
  cfg.dup_ack_probability = 1.0;
  cfg.reorder_probability = 0.5;
  AckMisbehaver m(sim, cfg, sim::Rng(3),
                  [&](Segment&& s) { out.push_back(std::move(s)); });
  for (uint64_t k = 0; k < 16; ++k) {
    Segment full = ack(1000 + k * 5720);
    for (uint64_t i = 0; i < 4; ++i)
      full.sacks.push_back({90000 + i * 2000, 91000 + i * 2000});
    ASSERT_NO_THROW(m.process(std::move(full)));
  }
  sim.run();
  ASSERT_FALSE(out.empty());
  std::size_t carrying = 0;
  for (const Segment& s : out) {
    if (s.sacks.empty()) continue;  // divided sub-ACKs carry none
    EXPECT_EQ(s.sacks.size(), 4u);
    ++carrying;
  }
  EXPECT_GE(carrying, 16u);
  EXPECT_EQ(m.stats().sack_dups, 0u);
}

TEST(Misbehavior, SuppressionStripsSacksOnlyInsideWindow) {
  sim::Simulator sim;
  std::vector<Segment> out;
  MisbehaviorConfig cfg;
  cfg.suppress_at = 10_ms;
  cfg.suppress_duration = 10_ms;
  AckMisbehaver m(sim, cfg, sim::Rng(1),
                  [&](Segment&& s) { out.push_back(std::move(s)); });
  m.process(sacked(1000, 3000, 4000));  // t=0: before window
  sim.run(15_ms);
  m.process(sacked(1001, 3000, 4000));  // inside window
  sim.run(25_ms);
  m.process(sacked(1002, 3000, 4000));  // after window
  sim.run();
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].sacks.size(), 1u);
  EXPECT_EQ(out[1].sacks.size(), 0u);
  EXPECT_EQ(out[2].sacks.size(), 1u);
  EXPECT_EQ(m.stats().sacks_suppressed, 1u);
}

TEST(Misbehavior, DividedAckSplitsCumulativeAdvance) {
  sim::Simulator sim;
  std::vector<Segment> out;
  MisbehaviorConfig cfg;
  cfg.divide_factor = 4;
  cfg.divide_step_bytes = 1000;
  AckMisbehaver m(sim, cfg, sim::Rng(1),
                  [&](Segment&& s) { out.push_back(std::move(s)); });
  m.process(ack(1000));
  m.process(ack(4000));  // 3000-byte advance -> 1000-byte sub-acks
  sim.run();
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out[0].ack, 1000u);
  EXPECT_EQ(out[1].ack, 2000u);
  EXPECT_EQ(out[2].ack, 3000u);
  EXPECT_EQ(out[3].ack, 4000u);
  EXPECT_GT(m.stats().acks_divided, 0u);
}

TEST(Misbehavior, DuplicationEmitsExtraCopy) {
  sim::Simulator sim;
  std::vector<Segment> out;
  MisbehaviorConfig cfg;
  cfg.dup_ack_probability = 1.0;
  AckMisbehaver m(sim, cfg, sim::Rng(1),
                  [&](Segment&& s) { out.push_back(std::move(s)); });
  m.process(ack(1000));
  sim.run();
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].ack, out[1].ack);
  EXPECT_EQ(m.stats().acks_duplicated, 1u);
}

TEST(Misbehavior, ReorderSwapsAdjacentAcks) {
  sim::Simulator sim;
  std::vector<Segment> out;
  MisbehaviorConfig cfg;
  cfg.reorder_probability = 1.0;
  AckMisbehaver m(sim, cfg, sim::Rng(1),
                  [&](Segment&& s) { out.push_back(std::move(s)); });
  m.process(ack(1000));  // held
  m.process(ack(2000));  // releases: 2000 first, then the held 1000
  sim.run();
  ASSERT_GE(out.size(), 2u);
  EXPECT_EQ(out[0].ack, 2000u);
  EXPECT_EQ(out[1].ack, 1000u);
  EXPECT_GT(m.stats().acks_reordered, 0u);
}

TEST(Misbehavior, ReorderFlushTimerReleasesLoneHeldAck) {
  sim::Simulator sim;
  std::vector<Segment> out;
  MisbehaviorConfig cfg;
  cfg.reorder_probability = 1.0;
  cfg.reorder_flush_timeout = 50_ms;
  AckMisbehaver m(sim, cfg, sim::Rng(1),
                  [&](Segment&& s) { out.push_back(std::move(s)); });
  m.process(ack(1000));  // held, no successor ever arrives
  sim.run();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].ack, 1000u);
  EXPECT_GE(sim.now(), 50_ms);
}

TEST(Misbehavior, ShrinkOverwritesRwndAndNeverAdvertisesZero) {
  sim::Simulator sim;
  std::vector<Segment> out;
  MisbehaviorConfig cfg;
  cfg.shrink_at = sim::Time::zero();
  cfg.shrink_duration = 1_s;
  cfg.shrink_rwnd_bytes = 0;  // misconfigured: must clamp to 1
  AckMisbehaver m(sim, cfg, sim::Rng(1),
                  [&](Segment&& s) { out.push_back(std::move(s)); });
  m.process(ack(1000, 65535));
  sim.run();
  ASSERT_EQ(out.size(), 1u);
  // rwnd 0 on the wire means "field unset" to the sender, so the
  // strongest expressible shrink is one byte.
  EXPECT_EQ(out[0].rwnd, 1u);
  EXPECT_EQ(m.stats().rwnds_shrunk, 1u);
}

TEST(Misbehavior, CorruptionMutatesAckFields) {
  sim::Simulator sim;
  std::vector<Segment> out;
  MisbehaviorConfig cfg;
  cfg.corrupt_probability = 1.0;
  AckMisbehaver m(sim, cfg, sim::Rng(7),
                  [&](Segment&& s) { out.push_back(std::move(s)); });
  const int n = 64;
  for (int i = 0; i < n; ++i) m.process(sacked(100000, 200000, 201000));
  sim.run();
  ASSERT_EQ(out.size(), static_cast<size_t>(n));
  EXPECT_EQ(m.stats().acks_corrupted, static_cast<uint64_t>(n));
  bool beyond = false, regressed = false, inverted = false;
  for (const Segment& s : out) {
    if (s.ack > 100000) beyond = true;
    if (s.ack < 100000) regressed = true;
    if (!s.sacks.empty() && s.sacks[0].start > s.sacks[0].end)
      inverted = true;
  }
  // All three corruption flavors appear across 64 uniform draws.
  EXPECT_TRUE(beyond);
  EXPECT_TRUE(regressed);
  EXPECT_TRUE(inverted);
}

TEST(Misbehavior, TransformIsDeterministicInTheRng) {
  auto run = [](uint64_t seed) {
    sim::Simulator sim;
    std::vector<Segment> out;
    MisbehaviorConfig cfg;
    cfg.lie_sack_probability = 0.3;
    cfg.dup_sack_probability = 0.3;
    cfg.dup_ack_probability = 0.3;
    cfg.reorder_probability = 0.3;
    cfg.corrupt_probability = 0.3;
    cfg.divide_factor = 3;
    AckMisbehaver m(sim, cfg, sim::Rng(seed),
                    [&](Segment&& s) { out.push_back(std::move(s)); });
    for (uint64_t i = 1; i <= 200; ++i)
      m.process(sacked(i * 1000, i * 1000 + 5000, i * 1000 + 6000));
    sim.run();
    return out;
  };
  std::vector<Segment> a = run(42), b = run(42), c = run(43);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].ack, b[i].ack);
    EXPECT_EQ(a[i].rwnd, b[i].rwnd);
    ASSERT_EQ(a[i].sacks.size(), b[i].sacks.size());
    for (size_t j = 0; j < a[i].sacks.size(); ++j)
      EXPECT_EQ(a[i].sacks[j], b[i].sacks[j]);
  }
  // A different seed draws a different transform sequence.
  bool differs = a.size() != c.size();
  for (size_t i = 0; !differs && i < a.size(); ++i)
    differs = a[i].ack != c[i].ack || a[i].sacks.size() != c[i].sacks.size();
  EXPECT_TRUE(differs);
}

}  // namespace
}  // namespace prr::net
