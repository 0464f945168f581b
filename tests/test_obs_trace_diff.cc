// CRN-aligned trace diffing (obs/trace_diff.h). The load-bearing test
// is the hand-checked scenario: the same single-loss connection driven
// identically under PRR and RFC 3517 must produce identical record
// streams up to recovery entry, and the first divergence must be the
// retransmission the entry ACK forces — PRR sends it under a smoothly
// reduced cwnd while RFC 3517 has already slammed cwnd to ssthresh.
// That is the paper's Figure 1 story located to a single record.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "obs/flight_recorder.h"
#include "obs/json.h"
#include "obs/trace_diff.h"
#include "tcp/sender.h"

namespace prr::obs {
namespace {

constexpr uint32_t kMss = 1000;

// One sender driven through a fixed ACK script, with every trace record
// captured through a listener.
class ScriptedArm {
 public:
  explicit ScriptedArm(tcp::RecoveryKind kind) {
    tcp::SenderConfig cfg;
    cfg.mss = kMss;
    cfg.initial_cwnd_segments = 20;
    cfg.cc = tcp::CcKind::kNewReno;
    cfg.recovery = kind;
    sender_ = std::make_unique<tcp::Sender>(
        sim_, cfg, [](net::Segment) {});
    recorder_ = std::make_unique<FlightRecorder>(1u << 12);
    recorder_->add_listener(
        [this](const TraceRecord& r) { records_.push_back(r); });
    sender_->set_recorder(recorder_.get(), /*conn_id=*/1);
  }

  void ack(uint64_t cum, std::vector<net::SackBlock> sacks = {}) {
    net::Segment a;
    a.is_ack = true;
    a.ack = cum;
    a.sacks.assign(sacks.begin(), sacks.end());
    a.rwnd = 1 << 30;
    sender_->on_ack_segment(a);
  }

  // 20 segments out, segment 0 lost, dupacks to recovery entry, more
  // dupacks for the ACK clock, then the completing cumulative ACK.
  void run_single_loss_script() {
    sender_->write(20 * kMss);
    for (int i = 0; i < 3; ++i) {
      ack(0, {{kMss, static_cast<uint64_t>(i + 2) * kMss}});
    }
    for (int i = 4; i < 19; ++i) {
      ack(0, {{kMss, static_cast<uint64_t>(i + 1) * kMss}});
    }
    ack(20 * kMss);
  }

  tcp::Sender& sender() { return *sender_; }
  const std::vector<TraceRecord>& records() const { return records_; }

 private:
  // The sender is declared last: its destructor cancels pending timers,
  // which traces through the recorder into records_, so it must be
  // destroyed before either of them.
  sim::Simulator sim_;
  std::vector<TraceRecord> records_;
  std::unique_ptr<FlightRecorder> recorder_;
  std::unique_ptr<tcp::Sender> sender_;
};

class TraceDiffTest : public ::testing::Test {};

TEST_F(TraceDiffTest, SingleLossPrrVsRfc3517DivergesAtEntryRetransmit) {
  ScriptedArm prr(tcp::RecoveryKind::kPrr);
  ScriptedArm rfc(tcp::RecoveryKind::kRfc3517);
  prr.run_single_loss_script();
  rfc.run_single_loss_script();
  ASSERT_EQ(prr.sender().state(), tcp::TcpState::kOpen);
  ASSERT_EQ(rfc.sender().state(), tcp::TcpState::kOpen);

  const DivergencePoint d =
      first_divergence(prr.records(), rfc.records());
  ASSERT_TRUE(d.diverged);
  ASSERT_FALSE(d.a_ended);
  ASSERT_FALSE(d.b_ended);

  // Hand-checked divergence: the fast retransmit of the lost segment 0,
  // forced by the entry ACK. Both arms send it — same seq, same length,
  // both marked retransmissions — but under different windows:
  //   NewReno halves cwnd: 20 segs -> ssthresh = 10 * kMss.
  //   RFC 3517 sets cwnd = ssthresh at entry, so its retransmit is
  //   recorded at cwnd == 10000.
  //   PRR leaves cwnd near the prior 20000 and decays it per ACK, so
  //   its retransmit is recorded at cwnd > ssthresh.
  EXPECT_EQ(d.a.type, TraceType::kTransmit);
  EXPECT_EQ(d.b.type, TraceType::kTransmit);
  EXPECT_EQ(d.a.a, 1u) << "PRR record must be a retransmission";
  EXPECT_EQ(d.b.a, 1u) << "RFC 3517 record must be a retransmission";
  EXPECT_EQ(d.a.f[0], 0u) << "retransmit of the lost first segment";
  EXPECT_EQ(d.b.f[0], 0u);
  EXPECT_EQ(d.a.f[1], kMss);
  EXPECT_EQ(d.b.f[1], kMss);
  EXPECT_EQ(d.b.f[2], 10 * kMss) << "RFC 3517 cwnd == ssthresh at entry";
  EXPECT_GT(d.a.f[2], 10 * kMss) << "PRR cwnd still above ssthresh";

  // Everything before that — initial window, dupacks, the recovery
  // entry itself — is identical under both arms, and the common prefix
  // ends on the entry record with the SAME reduction target.
  ASSERT_FALSE(d.common.empty());
  const TraceRecord& last_common = d.common.back();
  EXPECT_EQ(last_common.type, TraceType::kEnterRecovery);
  EXPECT_EQ(last_common.f[1], 10 * kMss) << "shared ssthresh";
  EXPECT_EQ(last_common.f[3], 20 * kMss) << "shared prior cwnd";
  EXPECT_EQ(last_common.f[4], 20 * kMss) << "shared recovery point";

  // The human-readable report names the differing field.
  const std::string report = explain_divergence(d, "PRR", "RFC 3517");
  EXPECT_NE(report.find("cwnd"), std::string::npos) << report;
  EXPECT_NE(report.find("PRR"), std::string::npos);
  EXPECT_NE(report.find("RFC 3517"), std::string::npos);
}

TEST_F(TraceDiffTest, IdenticalStreamsDoNotDiverge) {
  ScriptedArm a(tcp::RecoveryKind::kPrr);
  ScriptedArm b(tcp::RecoveryKind::kPrr);
  a.run_single_loss_script();
  b.run_single_loss_script();
  const DivergencePoint d = first_divergence(a.records(), b.records());
  EXPECT_FALSE(d.diverged);
  EXPECT_GT(d.common_count, 0u);
}

TEST_F(TraceDiffTest, ExhaustionDivergenceWhenOneStreamEnds) {
  ScriptedArm a(tcp::RecoveryKind::kPrr);
  ScriptedArm b(tcp::RecoveryKind::kPrr);
  a.run_single_loss_script();
  b.run_single_loss_script();
  std::vector<TraceRecord> shorter = b.records();
  ASSERT_GT(shorter.size(), 4u);
  shorter.resize(shorter.size() - 4);
  const DivergencePoint d = first_divergence(a.records(), shorter);
  EXPECT_TRUE(d.diverged);
  EXPECT_FALSE(d.a_ended);
  EXPECT_TRUE(d.b_ended);
  const std::string report = explain_divergence(d, "full", "cut");
  EXPECT_NE(report.find("cut"), std::string::npos) << report;
}

TEST_F(TraceDiffTest, TimerRecordsIgnoredByDefaultButComparable) {
  const TraceRecord base =
      make_record(sim::Time::nanoseconds(10), 1, TraceType::kAck);
  const TraceRecord timer = make_record(sim::Time::nanoseconds(5), 1,
                                        TraceType::kTimerSchedule);
  const std::vector<TraceRecord> plain = {base};
  const std::vector<TraceRecord> with_timer = {timer, base};

  EXPECT_FALSE(first_divergence(plain, with_timer).diverged);

  DiffOptions strict;
  strict.ignore_timers = false;
  EXPECT_TRUE(first_divergence(plain, with_timer, strict).diverged);
}

TEST_F(TraceDiffTest, PerfettoDiffJsonIsValidAndMarksDivergence) {
  ScriptedArm prr(tcp::RecoveryKind::kPrr);
  ScriptedArm rfc(tcp::RecoveryKind::kRfc3517);
  prr.run_single_loss_script();
  rfc.run_single_loss_script();
  const std::string json =
      perfetto_diff_json(prr.records(), rfc.records(), "PRR", "RFC 3517");
  ASSERT_TRUE(json_valid(json));
  EXPECT_NE(json.find("FIRST DIVERGENCE"), std::string::npos);
  EXPECT_NE(json.find("\"pid\":1"), std::string::npos);
  EXPECT_NE(json.find("\"pid\":2"), std::string::npos);
  EXPECT_NE(json.find("PRR"), std::string::npos);
  EXPECT_NE(json.find("RFC 3517"), std::string::npos);
}

}  // namespace
}  // namespace prr::obs
