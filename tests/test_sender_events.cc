// The sender's observer channel: SenderEvents listeners (registration
// order, capacity, lifetime across a pooled reset), the one close event
// per recovery episode and the stats::RecoveryLog rows built from it, and
// the self-profiler's two histogram taps.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "net/loss_model.h"
#include "obs/self_profile.h"
#include "sim/simulator.h"
#include "stats/recovery_log.h"
#include "tcp/connection.h"

namespace prr::tcp {
namespace {

using namespace prr::sim::literals;

ConnectionConfig clean_config() {
  ConnectionConfig cfg;
  cfg.sender.handshake_rtt = 40_ms;
  cfg.path = net::Path::Config::symmetric(util::DataRate::mbps(10), 40_ms);
  return cfg;
}

// Counts transmissions, snd.una advances and processed ACKs, and appends
// its tag to a shared log on each transmission, so tests can check both
// coverage and the order listeners run in.
struct Tally final : SenderEvents {
  char tag;
  std::string* log;
  uint64_t transmits = 0;
  uint64_t una_advances = 0;
  uint64_t acks = 0;
  Tally(char t, std::string* l) : tag(t), log(l) {}
  void on_transmit(uint64_t, uint32_t, bool) override {
    ++transmits;
    *log += tag;
  }
  void on_una_advance(uint64_t) override { ++una_advances; }
  void on_ack_processed(const net::Segment&) override { ++acks; }
};

TEST(SenderEvents, ListenersRunInRegistrationOrder) {
  sim::Simulator sim;
  Connection conn(sim, clean_config(), sim::Rng(1));
  std::string log;
  Tally a('a', &log), b('b', &log);
  conn.sender().add_listener(&a);
  conn.sender().add_listener(&b);
  conn.write(3 * 1430);
  EXPECT_EQ(log, "ababab");
  sim.run(sim::Time::seconds(5));
  ASSERT_TRUE(conn.sender().all_acked());
  EXPECT_EQ(a.acks, b.acks);
  EXPECT_GT(a.una_advances, 0u);
  EXPECT_EQ(a.una_advances, b.una_advances);
}

TEST(SenderEvents, FifthListenerThrows) {
  sim::Simulator sim;
  Connection conn(sim, clean_config(), sim::Rng(1));
  std::string log;
  Tally r('r', &log);
  for (std::size_t i = 0; i < Sender::kMaxListeners; ++i) {
    conn.sender().add_listener(&r);
  }
  EXPECT_THROW(conn.sender().add_listener(&r), std::length_error);
  // The full list still dispatches to each registration once.
  conn.write(1430);
  EXPECT_EQ(r.transmits, Sender::kMaxListeners);
}

TEST(SenderEvents, PooledResetDropsListenersAndProfiler) {
  sim::Simulator sim;
  Connection conn(sim, clean_config(), sim::Rng(1));
  std::string log;
  Tally stale('s', &log);
  conn.sender().add_listener(&stale);
  obs::SelfProfiler stale_profiler;
  stale_profiler.attach(sim);
  stale_profiler.attach(conn.sender());
  conn.write(20'000);
  sim.run(sim::Time::seconds(5));
  ASSERT_TRUE(conn.sender().all_acked());
  const std::string stale_log = log;
  const uint64_t stale_acks = stale.acks;
  const uint64_t stale_slices = stale_profiler.slice_ns().count();
  const uint64_t stale_ack_ns = stale_profiler.ack_ns().count();
  ASSERT_GT(stale_acks, 0u);
  ASSERT_GT(stale_ack_ns, 0u);

  sim.reset();
  conn.reset(clean_config(), sim::Rng(2));
  Tally fresh('f', &log);
  conn.sender().add_listener(&fresh);
  conn.write(20'000);
  sim.run(sim::Time::seconds(5));
  ASSERT_TRUE(conn.sender().all_acked());
  EXPECT_GT(fresh.acks, 0u);
  EXPECT_EQ(stale.acks, stale_acks);
  EXPECT_EQ(log.substr(0, stale_log.size()), stale_log);
  EXPECT_EQ(log.find('s', stale_log.size()), std::string::npos);
  EXPECT_EQ(stale_profiler.slice_ns().count(), stale_slices);
  EXPECT_EQ(stale_profiler.ack_ns().count(), stale_ack_ns);
}

// Every close event, in order.
struct Closes final : SenderEvents {
  std::vector<std::pair<RecoveryEntry, RecoveryClose>> seen;
  void on_recovery_closed(const RecoveryEntry& entry,
                          const RecoveryClose& close) override {
    seen.emplace_back(entry, close);
  }
};

// A hand-clocked sender with 40 segments to send and an initial window
// of 20. Segment 0 is lost; one ACK arrives every 5 ms, SACKing the
// next segment. The first two send new data (limited transmit), and the
// third enters Recovery at t = 15 ms with snd.nxt at segment 22.
class RecoveryCloseTest : public ::testing::Test {
 protected:
  static constexpr uint32_t kMss = 1000;

  static SenderConfig config() {
    SenderConfig cfg;
    cfg.mss = kMss;
    cfg.initial_cwnd_segments = 20;
    cfg.cc = CcKind::kNewReno;
    cfg.recovery = RecoveryKind::kPrr;
    return cfg;
  }

  void SetUp() override {
    sender = std::make_unique<Sender>(sim, config(), [](net::Segment) {});
    listen();
  }
  void listen() {
    sender->add_listener(&closes);
    sender->add_listener(&log);
  }

  void ack_in_5ms(uint64_t cum, uint64_t sacked_end = 0,
                  std::optional<net::SackBlock> dsack = std::nullopt) {
    sim.run(sim.now() + 5_ms);
    net::Segment a;
    a.is_ack = true;
    a.ack = cum;
    if (sacked_end > 0) a.sacks.push_back({kMss, sacked_end});
    a.dsack = dsack;
    a.rwnd = 1 << 30;
    sender->on_ack_segment(a);
  }

  void enter_recovery() {
    sender->write(40 * kMss);
    for (uint64_t seg = 2; seg <= 4; ++seg) ack_in_5ms(0, seg * kMss);
    ASSERT_EQ(sender->state(), TcpState::kRecovery);
  }
  // SACKs up to the recovery point, then ACKs it.
  void complete_recovery() {
    for (uint64_t seg = 5; seg <= 22; ++seg) ack_in_5ms(0, seg * kMss);
    ack_in_5ms(22 * kMss);
    ASSERT_NE(sender->state(), TcpState::kRecovery);
  }

  // The row the sender wrote into its log before the close event
  // existed, pinned; the undo and RTO rows differ from it only where
  // their tests say.
  static stats::RecoveryEvent completed_row() {
    stats::RecoveryEvent e;
    e.start = 15_ms;
    e.end = 110_ms;
    e.pipe_at_start = 18'000;
    e.ssthresh = 10'000;
    e.cwnd_at_start = 20'000;
    e.cwnd_at_exit = 10'000;
    e.cwnd_after_exit = 10'000;
    e.pipe_at_exit = 9'000;
    e.mss = kMss;
    e.retransmits = 1;
    e.bytes_sent_during = 10'000;
    e.max_burst_segments = 1;
    e.completed = true;
    return e;
  }

  sim::Simulator sim;
  Closes closes;
  stats::RecoveryLog log;
  std::unique_ptr<Sender> sender;
};

TEST_F(RecoveryCloseTest, CompletedEpisodeClosesOnce) {
  enter_recovery();
  complete_recovery();
  ASSERT_EQ(closes.seen.size(), 1u);
  const auto& [entry, close] = closes.seen[0];
  EXPECT_EQ(close.how, RecoveryExit::kCompleted);
  EXPECT_FALSE(entry.via_er);
  EXPECT_EQ(entry.recovery_point, 22u * kMss);
  EXPECT_EQ(entry.recover_fs, 22u * kMss);
  ASSERT_EQ(log.count(), 1u);
  EXPECT_EQ(log.events()[0], completed_row());
}

TEST_F(RecoveryCloseTest, UndoneEpisodeClosesOnce) {
  enter_recovery();
  // The hole's original arrives after all: a DSACK for the retransmission.
  ack_in_5ms(20 * kMss, 0, net::SackBlock{0, kMss});
  ASSERT_EQ(sender->metrics().undo_events, 1u);
  ASSERT_EQ(closes.seen.size(), 1u);
  EXPECT_EQ(closes.seen[0].second.how, RecoveryExit::kUndo);
  stats::RecoveryEvent row = completed_row();
  row.end = 20_ms;
  row.cwnd_at_exit = 20'000;
  row.cwnd_after_exit = 20'000;
  row.pipe_at_exit = 2'000;
  row.bytes_sent_during = 1'000;
  row.slow_start_after = true;
  ASSERT_EQ(log.count(), 1u);
  EXPECT_EQ(log.events()[0], row);
}

TEST_F(RecoveryCloseTest, RtoInterruptedEpisodeClosesOnce) {
  enter_recovery();
  sim.run(sim.now() + 5_s);  // no more ACKs: the RTO fires, and backs off
  ASSERT_GE(sender->metrics().timeouts_total, 2u);
  ASSERT_EQ(closes.seen.size(), 1u);
  EXPECT_EQ(closes.seen[0].second.how, RecoveryExit::kRto);
  stats::RecoveryEvent row = completed_row();
  row.end = 1'015_ms;
  row.cwnd_at_exit = 0;
  row.cwnd_after_exit = 0;
  row.pipe_at_exit = 0;
  row.bytes_sent_during = 1'000;
  row.completed = false;
  row.interrupted_by_timeout = true;
  ASSERT_EQ(log.count(), 1u);
  EXPECT_EQ(log.events()[0], row);
}

TEST_F(RecoveryCloseTest, EpisodeOpenWhenTheRunStopsNeverCloses) {
  enter_recovery();
  EXPECT_EQ(sender->metrics().fast_recovery_events, 1u);
  EXPECT_TRUE(closes.seen.empty());
  EXPECT_EQ(log.count(), 0u);
}

TEST_F(RecoveryCloseTest, ResetDropsTheOpenEpisode) {
  // The stale episode has retransmitted and sent new data; none of it
  // may reach the next connection's row.
  enter_recovery();
  for (uint64_t seg = 5; seg <= 12; ++seg) ack_in_5ms(0, seg * kMss);
  ASSERT_EQ(sender->state(), TcpState::kRecovery);

  sim.reset();
  sender->reset(config());
  listen();
  enter_recovery();
  complete_recovery();
  ASSERT_EQ(closes.seen.size(), 1u);
  ASSERT_EQ(log.count(), 1u);
  EXPECT_EQ(log.events()[0], completed_row());
}

// Over a lossy bulk transfer, every episode the sender opens closes
// exactly once, and each RTO in Recovery is one kRto close.
TEST(SenderEvents, EveryEpisodeClosesOnce) {
  sim::Simulator sim;
  ConnectionConfig cfg = clean_config();
  Connection conn(sim, cfg, sim::Rng(4));
  conn.path().data_link().set_loss_model(
      std::make_unique<net::BernoulliLoss>(0.03, sim::Rng(5)));
  Closes closes;
  stats::RecoveryLog log;
  conn.sender().add_listener(&closes);
  conn.sender().add_listener(&log);
  conn.write(2'000'000);
  sim.run(sim::Time::seconds(600));
  ASSERT_TRUE(conn.sender().all_acked());

  const Metrics& m = conn.sender().metrics();
  ASSERT_GT(m.fast_recovery_events, 5u);
  EXPECT_EQ(closes.seen.size(), m.fast_recovery_events);
  EXPECT_EQ(log.count(), m.fast_recovery_events);
  uint64_t rto = 0, retransmits = 0;
  for (const auto& [entry, close] : closes.seen) {
    rto += close.how == RecoveryExit::kRto;
    retransmits += close.retransmits;
    EXPECT_LE(entry.start, close.end);
  }
  EXPECT_EQ(rto, m.timeouts_in_recovery);
  EXPECT_EQ(retransmits, m.fast_retransmits);
}

TEST(SelfProfiler, CountsEveryAckAndEverySlice) {
  sim::Simulator sim;
  Connection conn(sim, clean_config(), sim::Rng(3));
  obs::SelfProfiler profiler;
  profiler.attach(sim);
  profiler.attach(conn.sender());
  conn.write(200'000);
  sim.run(sim::Time::seconds(30));
  ASSERT_TRUE(conn.sender().all_acked());
  EXPECT_GT(profiler.ack_ns().count(), 0u);
  EXPECT_EQ(profiler.ack_ns().count(),
            conn.path().ack_link().stats().delivered);
  EXPECT_EQ(profiler.slice_ns().count(), sim.events_processed());

  obs::MetricsRegistry registry;
  profiler.export_into(registry);
  ASSERT_NE(registry.find_histogram("profile.ack_ns"), nullptr);
  EXPECT_EQ(registry.find_histogram("profile.ack_ns")->count(),
            profiler.ack_ns().count());
  EXPECT_EQ(registry.find_histogram("profile.slice_ns")->count(),
            profiler.slice_ns().count());
}

}  // namespace
}  // namespace prr::tcp
