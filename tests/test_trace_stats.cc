// Trace capture/rendering and the stats aggregates (RecoveryLog,
// LatencyTracker, Metrics arithmetic).
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <stdexcept>

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
  r.set_completed(true);
  r.set_path_rtt(100_ms);
  r.set_bytes(5000);
  r.set_first_byte_sent(sim::Time::zero());
  r.set_last_byte_acked(200_ms);
  r.set_had_retransmit(true);
  t.add(r);
  r.set_bytes(900);
  r.set_had_retransmit(false);
  r.set_last_byte_acked(110_ms);
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
  r.set_completed(true);
  r.set_path_rtt(100_ms);
  r.set_bytes(1000);
  r.set_first_byte_sent(sim::Time::zero());
  r.set_last_byte_acked(450_ms);
  t.add(r);
  util::Samples s = t.rtts_taken();
  EXPECT_DOUBLE_EQ(s.quantile(0.5), 4.5);
}

TEST(LatencyTrackerStats, IncompleteExcluded) {
  stats::LatencyTracker t;
  stats::ResponseRecord r;
  r.set_completed(false);
  t.add(r);
  EXPECT_EQ(t.latency_ms().count(), 0u);
}

// The record is what an unbounded sweep keeps per response; its size is
// the per-response memory cost DESIGN.md §11 quotes.
static_assert(sizeof(stats::ResponseRecord) == 24);

TEST(ResponseRecordPacking, EveryAccessorRoundTripsAtItsLimits) {
  const sim::Time max_rtt = sim::Time::seconds(4.0);  // video's RTT clamp
  stats::ResponseRecord r;
  r.set_bytes(stats::ResponseRecord::kMaxBytes);
  r.set_path_rtt(max_rtt);
  r.set_first_byte_sent(sim::Time::nanoseconds(INT64_MIN));
  r.set_last_byte_acked(sim::Time::nanoseconds(INT64_MAX));
  r.set_completed(true);
  r.set_had_retransmit(true);
  EXPECT_EQ(r.bytes(), (uint64_t{1} << 30) - 1);
  EXPECT_EQ(r.path_rtt(), max_rtt);
  EXPECT_DOUBLE_EQ(r.path_rtt_ms(), 4000.0);
  EXPECT_EQ(r.first_byte_sent().ns(), INT64_MIN);
  EXPECT_EQ(r.last_byte_acked().ns(), INT64_MAX);
  EXPECT_TRUE(r.completed());
  EXPECT_TRUE(r.had_retransmit());

  // The flags share the byte count's word: clearing one leaves the rest.
  r.set_completed(false);
  EXPECT_FALSE(r.completed());
  EXPECT_TRUE(r.had_retransmit());
  EXPECT_EQ(r.bytes(), stats::ResponseRecord::kMaxBytes);
  r.set_had_retransmit(false);
  r.set_completed(true);
  EXPECT_TRUE(r.completed());
  EXPECT_FALSE(r.had_retransmit());
  EXPECT_EQ(r.bytes(), stats::ResponseRecord::kMaxBytes);
  r.set_bytes(0);
  EXPECT_EQ(r.bytes(), 0u);
  EXPECT_TRUE(r.completed());

  // The largest uint32 of ns is the last RTT that fits.
  r.set_path_rtt(stats::ResponseRecord::kMaxPathRtt);
  EXPECT_EQ(r.path_rtt().ns(), int64_t{UINT32_MAX});
  r.set_path_rtt(sim::Time::zero());
  EXPECT_EQ(r.rtts_taken(), 0);
}

TEST(ResponseRecordPacking, ValuesPastTheLimitsThrowAndLeaveTheRecord) {
  stats::ResponseRecord r;
  r.set_bytes(1234);
  r.set_path_rtt(100_ms);
  r.set_completed(true);
  EXPECT_THROW(r.set_bytes(stats::ResponseRecord::kMaxBytes + 1),
               std::out_of_range);
  EXPECT_THROW(r.set_path_rtt(stats::ResponseRecord::kMaxPathRtt +
                              sim::Time::nanoseconds(1)),
               std::out_of_range);
  EXPECT_THROW(r.set_path_rtt(sim::Time::nanoseconds(-1)), std::out_of_range);
  EXPECT_EQ(r.bytes(), 1234u);
  EXPECT_EQ(r.path_rtt(), 100_ms);
  EXPECT_TRUE(r.completed());
  EXPECT_FALSE(r.had_retransmit());
}

TEST(LatencyTrackerStats, SetBoundedAfterTheFirstAddThrows) {
  stats::LatencyTracker t;
  t.set_bounded(true);
  t.set_bounded(false);  // still empty: the mode may change
  t.add(stats::ResponseRecord{});
  EXPECT_THROW(t.set_bounded(true), std::logic_error);
  EXPECT_THROW(t.set_bounded(false), std::logic_error);
  EXPECT_EQ(t.responses().size(), 1u);
}

TEST(LatencyTrackerStats, MergeAcrossStorageModesThrows) {
  stats::LatencyTracker bounded, unbounded;
  bounded.set_bounded(true);
  bounded.add(stats::ResponseRecord{});
  unbounded.add(stats::ResponseRecord{});
  EXPECT_THROW(unbounded.merge(bounded), std::logic_error);
  EXPECT_THROW(bounded.merge(unbounded), std::logic_error);
  // A failed merge folds nothing: count() still matches the kept records.
  EXPECT_EQ(unbounded.count(), unbounded.responses().size());
  EXPECT_EQ(bounded.count(), 1u);

  stats::LatencyTracker same;
  same.merge(unbounded);
  EXPECT_EQ(same.count(), 1u);
  EXPECT_EQ(same.responses().size(), 1u);
}

stats::RecoveryEvent one_segment_event() {
  stats::RecoveryEvent e;
  e.mss = 1000;
  return e;
}

TEST(RecoveryLogStats, SetBoundedAfterTheFirstAddThrows) {
  stats::RecoveryLog log;
  log.set_bounded(true);
  log.set_bounded(false);
  log.add(one_segment_event());
  EXPECT_THROW(log.set_bounded(true), std::logic_error);
  EXPECT_EQ(log.events().size(), 1u);
}

TEST(RecoveryLogStats, MergeAcrossStorageModesThrows) {
  stats::RecoveryLog bounded, unbounded;
  bounded.set_bounded(true);
  bounded.add(one_segment_event());
  unbounded.add(one_segment_event());
  EXPECT_THROW(unbounded.merge(bounded), std::logic_error);
  EXPECT_THROW(bounded.merge(unbounded), std::logic_error);
  EXPECT_EQ(unbounded.count(), unbounded.events().size());
  EXPECT_EQ(bounded.count(), 1u);
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
