// The sender's observer channel: SenderEvents listeners (registration
// order, capacity, lifetime across a pooled reset) and the self-profiler's
// two histogram taps.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "obs/self_profile.h"
#include "sim/simulator.h"
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
  conn.reset(clean_config(), sim::Rng(2), nullptr);
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
