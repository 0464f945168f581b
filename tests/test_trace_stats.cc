// Trace capture/rendering and the stats aggregates (RecoveryLog,
// LatencyTracker, Metrics arithmetic).
#include <gtest/gtest.h>

#include <sstream>

#include "stats/latency.h"
#include "stats/recovery_log.h"
#include "tcp/metrics.h"
#include "trace/timeseq.h"

namespace prr {
namespace {

using namespace prr::sim::literals;

trace::TraceEvent ev(sim::Time at, trace::EventKind k, uint64_t lo,
                     uint64_t hi) {
  return {at, k, lo, hi};
}

TEST(TimeSeqTrace, CsvFormat) {
  trace::TimeSeqTrace t;
  t.record(ev(10_ms, trace::EventKind::kSend, 0, 1000));
  t.record(ev(20_ms, trace::EventKind::kRetransmit, 0, 1000));
  t.record(ev(30_ms, trace::EventKind::kUnaAdvance, 1000, 1000));
  t.record(ev(30_ms, trace::EventKind::kSack, 2000, 3000));
  std::ostringstream os;
  t.write_csv(os);
  const std::string csv = os.str();
  EXPECT_NE(csv.find("time_ms,kind,seq_lo,seq_hi"), std::string::npos);
  EXPECT_NE(csv.find("10,send,0,1000"), std::string::npos);
  EXPECT_NE(csv.find("20,retransmit,0,1000"), std::string::npos);
  EXPECT_NE(csv.find("30,una,1000,1000"), std::string::npos);
  EXPECT_NE(csv.find("30,sack,2000,3000"), std::string::npos);
}

TEST(TimeSeqTrace, RetransmitQueries) {
  trace::TimeSeqTrace t;
  t.record(ev(10_ms, trace::EventKind::kSend, 0, 1000));
  t.record(ev(20_ms, trace::EventKind::kRetransmit, 0, 1000));
  t.record(ev(50_ms, trace::EventKind::kRetransmit, 1000, 2000));
  EXPECT_EQ(t.retransmits().size(), 2u);
  EXPECT_EQ(t.time_of_last_retransmit().ms(), 50);
}

TEST(TimeSeqTrace, LongestSendGap) {
  trace::TimeSeqTrace t;
  t.record(ev(0_ms, trace::EventKind::kSend, 0, 1000));
  t.record(ev(10_ms, trace::EventKind::kSend, 1000, 2000));
  t.record(ev(60_ms, trace::EventKind::kSend, 2000, 3000));
  EXPECT_EQ(t.longest_send_gap(0_ms, 60_ms).ms(), 50);
  // Trailing gap to the interval end counts too.
  EXPECT_EQ(t.longest_send_gap(0_ms, 200_ms).ms(), 140);
}

TEST(TimeSeqTrace, MaxBurstCountsWindowedSends) {
  trace::TimeSeqTrace t;
  for (int i = 0; i < 5; ++i)
    t.record(ev(sim::Time::microseconds(i * 100), trace::EventKind::kSend,
                static_cast<uint64_t>(i) * 1000,
                static_cast<uint64_t>(i + 1) * 1000));
  t.record(ev(100_ms, trace::EventKind::kSend, 5000, 6000));
  EXPECT_EQ(t.max_burst(1_ms), 5);
}

TEST(TimeSeqTrace, AsciiRenderEmpty) {
  trace::TimeSeqTrace t;
  EXPECT_EQ(t.render_ascii(), "(empty trace)\n");
}

TEST(RecoveryLogStats, SlowStartAfterFraction) {
  stats::RecoveryLog log;
  stats::RecoveryEvent e;
  e.mss = 1000;
  e.completed = true;
  e.slow_start_after = true;
  log.add(e);
  e.slow_start_after = false;
  log.add(e);
  e.completed = false;  // incomplete events excluded
  e.slow_start_after = true;
  log.add(e);
  EXPECT_DOUBLE_EQ(log.fraction_slow_start_after(), 0.5);
}

TEST(RecoveryLogStats, TimeoutFraction) {
  stats::RecoveryLog log;
  stats::RecoveryEvent e;
  e.mss = 1000;
  e.interrupted_by_timeout = true;
  log.add(e);
  e.interrupted_by_timeout = false;
  log.add(e);
  log.add(e);
  EXPECT_NEAR(log.fraction_with_timeout(), 1.0 / 3.0, 1e-9);
}

TEST(RecoveryLogStats, AppendMerges) {
  stats::RecoveryLog a, b;
  stats::RecoveryEvent e;
  e.mss = 1000;
  a.add(e);
  b.add(e);
  b.add(e);
  a.merge(b);
  EXPECT_EQ(a.count(), 3u);
}

TEST(RecoveryLogStats, SegmentViews) {
  stats::RecoveryEvent e;
  e.mss = 1000;
  e.pipe_at_start = 15'000;
  e.ssthresh = 10'000;
  e.cwnd_at_exit = 8'000;
  e.cwnd_after_exit = 10'000;
  EXPECT_DOUBLE_EQ(e.pipe_minus_ssthresh_segs(), 5.0);
  EXPECT_DOUBLE_EQ(e.cwnd_minus_ssthresh_at_exit_segs(), -2.0);
  EXPECT_DOUBLE_EQ(e.cwnd_after_exit_segs(), 10.0);
}

TEST(LatencyTrackerStats, FiltersBySizeAndRetransmit) {
  stats::LatencyTracker t;
  stats::ResponseRecord r;
  r.completed = true;
  r.path_rtt_ms = 100;
  r.bytes = 5000;
  r.first_byte_sent = sim::Time::zero();
  r.last_byte_acked = 200_ms;
  r.had_retransmit = true;
  t.add(r);
  r.bytes = 900;
  r.had_retransmit = false;
  r.last_byte_acked = 110_ms;
  t.add(r);

  EXPECT_EQ(t.latency_ms().count(), 2u);
  EXPECT_EQ(t.latency_ms(stats::LatencyTracker::Filter::kWithRetransmit)
                .count(),
            1u);
  EXPECT_EQ(t.latency_ms(stats::LatencyTracker::Filter::kWithoutRetransmit)
                .count(),
            1u);
  EXPECT_EQ(t.latency_ms(stats::LatencyTracker::Filter::kAll, 4000).count(),
            1u);
  EXPECT_DOUBLE_EQ(t.fraction_with_retransmit(), 0.5);
}

TEST(LatencyTrackerStats, RttsTakenUsesPathRtt) {
  stats::LatencyTracker t;
  stats::ResponseRecord r;
  r.completed = true;
  r.path_rtt_ms = 100;
  r.bytes = 1000;
  r.first_byte_sent = sim::Time::zero();
  r.last_byte_acked = 450_ms;
  t.add(r);
  util::Samples s = t.rtts_taken();
  EXPECT_DOUBLE_EQ(s.quantile(0.5), 4.5);
}

TEST(LatencyTrackerStats, IncompleteExcluded) {
  stats::LatencyTracker t;
  stats::ResponseRecord r;
  r.completed = false;
  t.add(r);
  EXPECT_EQ(t.latency_ms().count(), 0u);
}

TEST(MetricsArithmetic, PlusEqualsAggregatesAllFields) {
  tcp::Metrics a, b;
  a.retransmits_total = 5;
  a.fast_retransmits = 3;
  b.retransmits_total = 7;
  b.timeouts_total = 2;
  b.undo_events = 1;
  b.spurious_rto_undone = 4;
  a += b;
  EXPECT_EQ(a.retransmits_total, 12u);
  EXPECT_EQ(a.fast_retransmits, 3u);
  EXPECT_EQ(a.timeouts_total, 2u);
  EXPECT_EQ(a.undo_events, 1u);
  EXPECT_EQ(a.spurious_rto_undone, 4u);
}

TEST(MetricsArithmetic, SummaryMentionsKeyCounters) {
  tcp::Metrics m;
  m.retransmits_total = 42;
  const std::string s = m.summary();
  EXPECT_NE(s.find("retx=42"), std::string::npos);
}

}  // namespace
}  // namespace prr
