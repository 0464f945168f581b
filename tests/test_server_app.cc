// ServerApp: response sequencing, latency measurement semantics (first
// byte sent -> last byte ACKed), retransmit flagging, throttled writes,
// and abort handling.
#include <gtest/gtest.h>

#include <memory>

#include "http/server_app.h"
#include "net/loss_model.h"
#include "sim/simulator.h"
#include "tcp/connection.h"

namespace prr::http {
namespace {

using namespace prr::sim::literals;

class ServerAppTest : public ::testing::Test {
 protected:
  void make_connection(double loss = 0.0,
                       util::DataRate rate = util::DataRate::mbps(4)) {
    tcp::ConnectionConfig cfg;
    cfg.sender.mss = 1000;
    cfg.sender.handshake_rtt = 100_ms;
    cfg.path = net::Path::Config::symmetric(rate, 100_ms, 200);
    conn = std::make_unique<tcp::Connection>(sim, cfg, sim::Rng(1));
    if (loss > 0) {
      conn->path().data_link().set_loss_model(
          std::make_unique<net::BernoulliLoss>(loss, sim::Rng(2)));
    }
  }

  sim::Simulator sim;
  std::unique_ptr<tcp::Connection> conn;
  stats::LatencyTracker latency;
};

TEST_F(ServerAppTest, SingleResponseMeasured) {
  make_connection();
  ServerApp app(sim, *conn, {ResponseSpec::plain(5000)}, &latency);
  app.start();
  sim.run(sim::Time::seconds(10));
  ASSERT_TRUE(app.finished());
  ASSERT_EQ(latency.responses().size(), 1u);
  const auto& r = latency.responses()[0];
  EXPECT_TRUE(r.completed());
  EXPECT_FALSE(r.had_retransmit());
  EXPECT_EQ(r.bytes(), 5000u);
  // 5 segments at 4 Mbps (~2ms each) + 100 ms RTT: roughly one RTT.
  EXPECT_GT(r.latency_ms(), 100);
  EXPECT_LT(r.latency_ms(), 220);
  EXPECT_DOUBLE_EQ(r.path_rtt_ms(), 100);
}

TEST_F(ServerAppTest, MultipleResponsesSequencedWithGaps) {
  make_connection();
  ServerApp app(sim, *conn,
                {ResponseSpec::plain(3000),
                 ResponseSpec::plain(3000, 500_ms),
                 ResponseSpec::plain(3000, 500_ms)},
                &latency);
  app.start();
  sim.run(sim::Time::seconds(30));
  ASSERT_TRUE(app.finished());
  ASSERT_EQ(latency.responses().size(), 3u);
  EXPECT_EQ(app.responses_completed(), 3u);
  // Second response starts ~500 ms after the first completes.
  const auto& r0 = latency.responses()[0];
  const auto& r1 = latency.responses()[1];
  EXPECT_GE((r1.first_byte_sent() - r0.last_byte_acked()).ms(), 499);
}

TEST_F(ServerAppTest, RetransmitFlagSetOnLossyResponse) {
  make_connection(0.15);
  ServerApp app(sim, *conn,
                {ResponseSpec::plain(20'000), ResponseSpec::plain(1000)},
                &latency);
  app.start();
  sim.run(sim::Time::seconds(120));
  ASSERT_TRUE(app.finished());
  ASSERT_EQ(latency.responses().size(), 2u);
  EXPECT_TRUE(latency.responses()[0].had_retransmit());
}

TEST_F(ServerAppTest, RetransmitFlagPerResponseNotGlobal) {
  // Losses on the first response must not mark the second.
  make_connection();
  // Drop two early segments only (original index based).
  conn->path().data_link().set_loss_model(
      std::make_unique<net::DeterministicLoss>(std::set<uint64_t>{2, 3}));
  ServerApp app(sim, *conn,
                {ResponseSpec::plain(10'000),
                 ResponseSpec::plain(10'000, 100_ms)},
                &latency);
  app.start();
  sim.run(sim::Time::seconds(60));
  ASSERT_EQ(latency.responses().size(), 2u);
  EXPECT_TRUE(latency.responses()[0].had_retransmit());
  EXPECT_FALSE(latency.responses()[1].had_retransmit());
}

TEST_F(ServerAppTest, ThrottledWriteSpreadsTransfer) {
  make_connection(0.0, util::DataRate::mbps(10));
  ResponseSpec spec;
  spec.bytes = 100'000;
  spec.burst_bytes = 20'000;
  spec.chunk_bytes = 10'000;
  spec.chunk_interval = 100_ms;
  ServerApp app(sim, *conn, {spec}, &latency);
  app.start();
  sim.run(sim::Time::seconds(60));
  ASSERT_TRUE(app.finished());
  const auto& r = latency.responses()[0];
  EXPECT_TRUE(r.completed());
  // 8 chunks after the burst at 100 ms each: at least 800 ms total.
  EXPECT_GE(r.latency_ms(), 800);
}

TEST_F(ServerAppTest, AbortRecordsIncompleteResponse) {
  make_connection();
  tcp::ConnectionConfig cfg;  // rebuild with tiny RTO budget
  cfg.sender.mss = 1000;
  cfg.sender.max_rto_backoffs = 2;
  cfg.sender.handshake_rtt = 100_ms;
  cfg.path = net::Path::Config::symmetric(util::DataRate::mbps(4), 100_ms);
  conn = std::make_unique<tcp::Connection>(sim, cfg, sim::Rng(1));
  ServerApp app(sim, *conn, {ResponseSpec::plain(20'000)}, &latency);
  sim.schedule_in(60_ms, [this] { conn->path().kill_client(); });
  app.start();
  sim.run(sim::Time::seconds(120));
  ASSERT_TRUE(app.finished());
  ASSERT_EQ(latency.responses().size(), 1u);
  EXPECT_FALSE(latency.responses()[0].completed());
}

TEST_F(ServerAppTest, EmptyResponseListFinishesImmediately) {
  make_connection();
  ServerApp app(sim, *conn, {}, &latency);
  app.start();
  EXPECT_TRUE(app.finished());
}

TEST_F(ServerAppTest, LatencyExcludesRequestGap) {
  make_connection();
  ServerApp app(sim, *conn,
                {ResponseSpec::plain(2000, 300_ms)}, &latency);
  app.start();
  sim.run(sim::Time::seconds(10));
  const auto& r = latency.responses()[0];
  // The 300 ms gap happens before the first byte: latency is still ~RTT.
  EXPECT_LT(r.latency_ms(), 250);
  EXPECT_GE(r.first_byte_sent().ms(), 300);
}

}  // namespace
}  // namespace prr::http
