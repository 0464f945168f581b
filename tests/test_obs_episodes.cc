// Episode analytics (obs/episodes.h): the builder's state machine on a
// hand-driven single-loss recovery, field-exact reconciliation against
// stats::RecoveryLog and tcp::Metrics on a real sweep of each recovery
// arm, and the determinism contract (thread count and tracing must not
// change the table).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "exp/experiment.h"
#include "exp/scenarios.h"
#include "obs/episodes.h"
#include "obs/flight_recorder.h"
#include "obs/json.h"
#include "tcp/sender.h"
#include "workload/web_workload.h"

namespace prr::obs {
namespace {

using namespace prr::sim::literals;

constexpr uint32_t kMss = 1000;

class EpisodeBuilderTest : public ::testing::Test {
 protected:
  void make(tcp::RecoveryKind kind) {
    tcp::SenderConfig cfg;
    cfg.mss = kMss;
    cfg.initial_cwnd_segments = 20;
    cfg.cc = tcp::CcKind::kNewReno;
    cfg.recovery = kind;
    sender = std::make_unique<tcp::Sender>(
        sim, cfg, [](net::Segment) {});
    sender->add_listener(&rlog);
    recorder = std::make_unique<FlightRecorder>(1u << 12);
    recorder->add_listener(
        [this](const TraceRecord& r) { builder.on_record(r); });
    sender->set_recorder(recorder.get(), /*conn_id=*/1);
  }

  net::Segment ack(uint64_t cum, std::vector<net::SackBlock> sacks = {},
                   std::optional<net::SackBlock> dsack = std::nullopt) {
    net::Segment a;
    a.is_ack = true;
    a.ack = cum;
    a.sacks.assign(sacks.begin(), sacks.end());
    a.dsack = dsack;
    a.rwnd = 1 << 30;
    return a;
  }

  // Single loss of segment 0 out of 20; dupacks until recovery triggers.
  void enter_single_loss() {
    sender->write(20 * kMss);
    for (int i = 0; i < 3 && sender->state() != tcp::TcpState::kRecovery;
         ++i) {
      sender->on_ack_segment(ack(0, {{kMss, (i + 2) * kMss}}));
    }
    ASSERT_EQ(sender->state(), tcp::TcpState::kRecovery);
  }

  // Declaration order doubles as a lifetime contract: the sender's
  // destructor cancels pending timers, which writes trace records
  // through the recorder into the builder — so the sender must be
  // destroyed first (declared last), the recorder second, builder last.
  sim::Simulator sim;
  const tcp::Metrics& metrics() const { return sender->metrics(); }
  stats::RecoveryLog rlog;
  EpisodeBuilder builder{EpisodeBuilder::Options{.keep_ledgers = true}};
  std::unique_ptr<FlightRecorder> recorder;
  std::unique_ptr<tcp::Sender> sender;
};

TEST_F(EpisodeBuilderTest, SingleLossEpisodeMatchesRecoveryLog) {
  make(tcp::RecoveryKind::kPrr);
  enter_single_loss();
  // Keep the ACK clock running, then the cumulative ACK covering the
  // recovery point completes the episode.
  for (int i = 4; i < 19; ++i) {
    sender->on_ack_segment(ack(0, {{kMss, (i + 1) * kMss}}));
  }
  sender->on_ack_segment(ack(20 * kMss));
  ASSERT_EQ(sender->state(), tcp::TcpState::kOpen);
  builder.finish();

  ASSERT_EQ(rlog.count(), 1u);
  ASSERT_EQ(builder.episodes().size(), 1u);
  const RecoveryEpisode& ep = builder.episodes()[0];
  const stats::RecoveryEvent& ev = rlog.events()[0];

  EXPECT_EQ(ep.summary.exit, EpisodeExit::kCompleted);
  EXPECT_EQ(ep.summary.conn, 1u);
  EXPECT_EQ(ep.summary.start_ns, ev.start.ns());
  EXPECT_EQ(ep.summary.end_ns, ev.end.ns());
  EXPECT_EQ(ep.summary.pipe_at_start, ev.pipe_at_start);
  EXPECT_EQ(ep.summary.ssthresh, ev.ssthresh);
  EXPECT_EQ(ep.summary.cwnd_at_start, ev.cwnd_at_start);
  EXPECT_EQ(ep.summary.cwnd_at_exit, ev.cwnd_at_exit);
  EXPECT_EQ(ep.summary.cwnd_after_exit, ev.cwnd_after_exit);
  EXPECT_EQ(ep.summary.pipe_at_exit, ev.pipe_at_exit);
  EXPECT_EQ(ep.summary.mss, ev.mss);
  EXPECT_EQ(ep.summary.retransmits, ev.retransmits);
  EXPECT_EQ(ep.summary.bytes_sent_during, ev.bytes_sent_during);
  EXPECT_EQ(ep.summary.max_burst_segments, ev.max_burst_segments);
  EXPECT_EQ(ep.summary.completed(), ev.completed);
  EXPECT_EQ(ep.summary.slow_start_after, ev.slow_start_after);
  EXPECT_FALSE(ep.summary.interrupted_by_timeout());

  // The ledger carries one row per in-recovery ACK, with the PRR
  // annotations riding on the rows where the PRR policy ran.
  EXPECT_EQ(ep.summary.acks, ep.ledger.size());
  ASSERT_FALSE(ep.ledger.empty());
  bool any_prr = false;
  uint64_t delivered = 0;
  for (const EpisodeAck& row : ep.ledger) {
    delivered += row.delivered;
    any_prr |= row.prr_valid;
    EXPECT_EQ(row.ssthresh, ev.ssthresh);
  }
  EXPECT_TRUE(any_prr);
  EXPECT_EQ(ep.summary.delivered_bytes, delivered);

  // Stream counters mirror the Metrics accumulator.
  const EpisodeBuilder::StreamCounts& s = builder.stream();
  EXPECT_EQ(s.data_segments_sent, metrics().data_segments_sent);
  EXPECT_EQ(s.retransmits_total, metrics().retransmits_total);
  EXPECT_EQ(s.fast_retransmits, metrics().fast_retransmits);
  EXPECT_EQ(s.dsacks_received, metrics().dsacks_received);
  EXPECT_EQ(s.undo_events, metrics().undo_events);
  EXPECT_EQ(s.timeouts_total, metrics().timeouts_total);
}

TEST_F(EpisodeBuilderTest, DsackUndoClosesEpisodeAsUndo) {
  make(tcp::RecoveryKind::kPrr);
  enter_single_loss();
  // Cumulative ACK plus a DSACK for the retransmitted hole: the loss
  // was spurious reordering and the sender reverts.
  sender->on_ack_segment(ack(20 * kMss, {}, net::SackBlock{0, kMss}));
  ASSERT_EQ(metrics().undo_events, 1u);
  builder.finish();

  ASSERT_EQ(builder.episodes().size(), 1u);
  const EpisodeSummary& s = builder.episodes()[0].summary;
  EXPECT_EQ(s.exit, EpisodeExit::kUndo);
  EXPECT_TRUE(s.completed());  // RecoveryLog counts undo as completed
  EXPECT_EQ(builder.stream().undo_events, 1u);
  EXPECT_EQ(s.dsacks_seen, 1u);
  ASSERT_EQ(rlog.count(), 1u);
  EXPECT_EQ(s.cwnd_after_exit, rlog.events()[0].cwnd_after_exit);
  EXPECT_EQ(s.slow_start_after, rlog.events()[0].slow_start_after);
}

TEST_F(EpisodeBuilderTest, RtoMidRecoveryClosesEpisodeAsInterrupted) {
  make(tcp::RecoveryKind::kPrr);
  enter_single_loss();
  sim.run(5_s);  // ACK clock stops: the retransmission timer fires
  ASSERT_GE(metrics().timeouts_total, 1u);
  builder.finish();

  ASSERT_GE(builder.episodes().size(), 1u);
  const EpisodeSummary& s = builder.episodes()[0].summary;
  EXPECT_EQ(s.exit, EpisodeExit::kRtoInterrupted);
  EXPECT_TRUE(s.interrupted_by_timeout());
  EXPECT_FALSE(s.completed());
  ASSERT_GE(rlog.count(), 1u);
  EXPECT_TRUE(rlog.events()[0].interrupted_by_timeout);
  EXPECT_EQ(s.slow_start_after, rlog.events()[0].slow_start_after);
}

TEST_F(EpisodeBuilderTest, StreamEndMidRecoveryTruncates) {
  make(tcp::RecoveryKind::kPrr);
  enter_single_loss();
  builder.finish();  // stream ends while recovery is in progress

  ASSERT_EQ(builder.episodes().size(), 1u);
  EXPECT_EQ(builder.episodes()[0].summary.exit, EpisodeExit::kTruncated);

  EpisodeTable t;
  t.fold(builder);
  EXPECT_EQ(t.total(), 1u);
  EXPECT_EQ(t.finished(), 0u);  // truncated rows stay out of the log
  EXPECT_EQ(t.truncated(), 1u);
  EXPECT_EQ(t.finished_log().count(), 0u);
}

class EpisodeSweepTest : public ::testing::Test {
 protected:
  static exp::RunOptions base_opts() {
    exp::RunOptions opts;
    opts.connections = 600;
    opts.seed = 9;
    opts.threads = 1;
    opts.collect_episodes = true;
    return opts;
  }
  // The three recovery arms: every reconciliation below holds for each.
  static std::vector<exp::ArmConfig> arms() {
    return {exp::ArmConfig::prr_arm(), exp::ArmConfig::rfc3517_arm(),
            exp::ArmConfig::linux_arm()};
  }
};

TEST_F(EpisodeSweepTest, SweepReconcilesWithRecoveryLogAndMetrics) {
  // Web under the chaos fault mix: the plain Web population undoes about
  // one episode per 8,000 connections, the fault mix a dozen per 600, and
  // it also interrupts episodes with RTOs.
  workload::WebWorkload base;
  exp::ChaosPopulation pop(base, exp::ChaosSpec::everything().profile);
  for (const exp::ArmResult& r : exp::run_arms(pop, arms(), base_opts())) {
    SCOPED_TRACE(r.name);
    // Every way an episode closes into the RecoveryLog is exercised.
    std::size_t completed = 0;
    std::size_t undone = 0;
    std::size_t interrupted = 0;
    for (const EpisodeSummary& row : r.episodes.rows()) {
      completed += row.exit == EpisodeExit::kCompleted;
      undone += row.exit == EpisodeExit::kUndo;
      interrupted += row.exit == EpisodeExit::kRtoInterrupted;
    }
    EXPECT_GT(completed, 0u);
    EXPECT_GT(undone, 0u);
    EXPECT_GT(interrupted, 0u);
    EXPECT_EQ(r.episodes.finished(), r.recovery_log.count());
    EXPECT_EQ(r.episodes.total(), r.metrics.fast_recovery_events);

    // The finished rows, as a RecoveryLog, are the sender's events.
    EXPECT_EQ(r.episodes.finished_log().events(), r.recovery_log.events());

    // Stream counters mirror Metrics.
    const EpisodeBuilder::StreamCounts& s = r.episodes.stream();
    EXPECT_EQ(s.data_segments_sent, r.metrics.data_segments_sent);
    EXPECT_EQ(s.retransmits_total, r.metrics.retransmits_total);
    EXPECT_EQ(s.fast_retransmits, r.metrics.fast_retransmits);
    EXPECT_EQ(s.dsacks_received, r.metrics.dsacks_received);
    EXPECT_EQ(s.undo_events, r.metrics.undo_events);
    EXPECT_EQ(s.lost_retransmits_detected,
              r.metrics.lost_retransmits_detected);
    EXPECT_EQ(s.lost_fast_retransmits, r.metrics.lost_fast_retransmits);
    EXPECT_EQ(s.timeouts_total, r.metrics.timeouts_total);
  }
}

TEST_F(EpisodeSweepTest, TableAccessorsMatchRecoveryLogMirrors) {
  workload::WebWorkload pop;
  const exp::ArmResult r =
      exp::run_arm(pop, exp::ArmConfig::prr_arm(), base_opts());
  const stats::RecoveryLog tab = r.episodes.finished_log();
  const stats::RecoveryLog& log = r.recovery_log;

  EXPECT_EQ(tab.count(), log.count());
  EXPECT_EQ(tab.bytes_sent_during(), log.bytes_sent_during());
  EXPECT_DOUBLE_EQ(tab.fraction_start_below_ssthresh(),
                   log.fraction_start_below_ssthresh());
  EXPECT_DOUBLE_EQ(tab.fraction_start_equal_ssthresh(),
                   log.fraction_start_equal_ssthresh());
  EXPECT_DOUBLE_EQ(tab.fraction_start_above_ssthresh(),
                   log.fraction_start_above_ssthresh());
  EXPECT_DOUBLE_EQ(tab.fraction_slow_start_after(),
                   log.fraction_slow_start_after());
  EXPECT_DOUBLE_EQ(tab.fraction_with_timeout(),
                   log.fraction_with_timeout());
  EXPECT_EQ(tab.pipe_minus_ssthresh_segs().values(),
            log.pipe_minus_ssthresh_segs().values());
  EXPECT_EQ(tab.cwnd_minus_ssthresh_exit_segs().values(),
            log.cwnd_minus_ssthresh_exit_segs().values());
  EXPECT_EQ(tab.cwnd_after_exit_segs().values(),
            log.cwnd_after_exit_segs().values());
  EXPECT_EQ(tab.recovery_time_ms().values(),
            log.recovery_time_ms().values());
}

TEST_F(EpisodeSweepTest, TableIdenticalAcrossThreadsAndTracing) {
  workload::WebWorkload pop;
  exp::RunOptions opts = base_opts();
  const std::vector<exp::ArmResult> serial =
      exp::run_arms(pop, arms(), opts);
  opts.threads = 3;
  const std::vector<exp::ArmResult> parallel =
      exp::run_arms(pop, arms(), opts);
  opts.trace = true;  // explicit tracing must not change the table
  const std::vector<exp::ArmResult> traced = exp::run_arms(pop, arms(), opts);

  ASSERT_EQ(serial.size(), 3u);
  for (std::size_t a = 0; a < serial.size(); ++a) {
    SCOPED_TRACE(serial[a].name);
    const std::string reference = serial[a].episodes.to_json();
    ASSERT_TRUE(json_valid(reference)) << reference;
    EXPECT_EQ(parallel[a].episodes.to_json(), reference);
    EXPECT_EQ(parallel[a].episodes.rows().size(),
              serial[a].episodes.rows().size());
    EXPECT_EQ(traced[a].episodes.to_json(), reference);
  }
}

TEST_F(EpisodeSweepTest, TraceConnectionCapturesEpisodesWithLedgers) {
  workload::WebWorkload pop;
  exp::RunOptions opts = base_opts();
  // Find a connection that entered recovery, then re-trace it.
  const exp::ArmResult r =
      exp::run_arm(pop, exp::ArmConfig::prr_arm(), opts);
  ASSERT_GT(r.episodes.finished(), 0u);
  const uint64_t conn = r.episodes.rows()[0].conn;

  const exp::TracedConnection t =
      exp::trace_connection(pop, exp::ArmConfig::prr_arm(), opts, conn);
  ASSERT_FALSE(t.records.empty());
  ASSERT_FALSE(t.episodes.empty());
  // The re-traced first episode is the same episode the sweep folded.
  const EpisodeSummary& sweep_row = r.episodes.rows()[0];
  const EpisodeSummary& traced_row = t.episodes[0].summary;
  EXPECT_EQ(traced_row.conn, sweep_row.conn);
  EXPECT_EQ(traced_row.start_ns, sweep_row.start_ns);
  EXPECT_EQ(traced_row.end_ns, sweep_row.end_ns);
  EXPECT_EQ(traced_row.delivered_bytes, sweep_row.delivered_bytes);
  EXPECT_FALSE(t.episodes[0].ledger.empty());
  EXPECT_EQ(t.episodes[0].ledger.size(), traced_row.acks);
  // describe() renders without falling over.
  EXPECT_FALSE(describe(t.episodes[0]).empty());
}

}  // namespace
}  // namespace prr::obs
