// Golden-string tests for obs::snapshot / snapshot_json corner states.
// These pin the exact rendered output — the snapshot is a forensic
// surface people copy into bug reports and diff across runs, so its
// format is part of the observable contract. If a change here is
// intentional, update the golden strings deliberately.
//
// Corner states covered: an RTO interrupting fast recovery (Loss state,
// backed-off timer, scoreboard full of holes), a DSACK undo (window
// restored, ssthresh back to "infinity"), and a zero-window stall
// (flight pinned against a 1-byte peer window).
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "obs/json.h"
#include "obs/snapshot.h"
#include "tcp/sender.h"

namespace prr::obs {
namespace {

using namespace prr::sim::literals;

constexpr uint32_t kMss = 1000;

class SnapshotTest : public ::testing::Test {
 protected:
  void make(tcp::RecoveryKind kind, tcp::CcKind cc = tcp::CcKind::kNewReno) {
    tcp::SenderConfig cfg;
    cfg.mss = kMss;
    cfg.initial_cwnd_segments = 20;
    cfg.cc = cc;
    cfg.recovery = kind;
    sender = std::make_unique<tcp::Sender>(
        sim, cfg, [](net::Segment) {}, &rlog);
  }

  void ack(uint64_t cum, std::vector<net::SackBlock> sacks = {},
           std::optional<net::SackBlock> dsack = std::nullopt,
           uint64_t rwnd = 1u << 30) {
    net::Segment a;
    a.is_ack = true;
    a.ack = cum;
    a.sacks.assign(sacks.begin(), sacks.end());
    a.dsack = dsack;
    a.rwnd = rwnd;
    sender->on_ack_segment(a);
  }

  // 20 segments out, segment 0 lost, dupacks until recovery triggers.
  void enter_single_loss() {
    sender->write(20 * kMss);
    for (int i = 0; i < 3; ++i) {
      ack(0, {{kMss, static_cast<uint64_t>(i + 2) * kMss}});
    }
    ASSERT_EQ(sender->state(), tcp::TcpState::kRecovery);
  }

  sim::Simulator sim;
  const tcp::Metrics& metrics() const { return sender->metrics(); }
  stats::RecoveryLog rlog;
  std::unique_ptr<tcp::Sender> sender;
};

TEST_F(SnapshotTest, GoldenRtoMidRecovery) {
  make(tcp::RecoveryKind::kPrr);
  enter_single_loss();
  sim.run(5_s);  // ACK clock stops: RTO fires (twice) mid-recovery
  ASSERT_EQ(sender->state(), tcp::TcpState::kLoss);

  EXPECT_EQ(snapshot(*sender, 7),
            "conn 7 state:Loss\n"
            "  newreno prr rto:4000ms rtt:0.0/0.0ms mss:1000 dupthresh:3\n"
            "  cwnd:1.0 ssthresh:8250 pipe:1000 una:0 nxt:20000 "
            "rwnd:1073741824\n"
            "  sacked:3 lost:17 retrans:3 timers:armed\n");
  const std::string json = snapshot_json(*sender, 7);
  EXPECT_TRUE(json_valid(json)) << json;
  EXPECT_EQ(
      json,
      "{\"conn\":7,\"state\":\"Loss\",\"aborted\":false,"
      "\"cc\":\"newreno\",\"recovery\":\"prr\",\"rto_ms\":4000,"
      "\"srtt_ms\":0,\"rttvar_ms\":0,\"backoffs\":2,\"mss\":1000,"
      "\"dupthresh\":3,\"reordering\":false,\"cwnd_bytes\":1000,"
      "\"ssthresh_bytes\":8250,\"pipe_bytes\":1000,\"snd_una\":0,"
      "\"snd_nxt\":20000,\"peer_rwnd\":1073741824,\"sacked_segments\":3,"
      "\"lost_segments\":17,\"retransmits\":3,\"timers_pending\":true}");
}

TEST_F(SnapshotTest, GoldenDsackUndo) {
  make(tcp::RecoveryKind::kPrr);
  enter_single_loss();
  // Cumulative ACK plus a DSACK for the retransmitted hole: spurious
  // recovery, fully undone — window restored, ssthresh back to "inf".
  ack(20 * kMss, {}, net::SackBlock{0, kMss});
  ASSERT_EQ(metrics().undo_events, 1u);

  EXPECT_EQ(snapshot(*sender, 8),
            "conn 8 state:Open\n"
            "  newreno prr rto:200ms rtt:0.0/0.0ms mss:1000 dupthresh:3\n"
            "  cwnd:21.0 ssthresh:18446744073709551615 pipe:0 una:20000 "
            "nxt:20000 rwnd:1073741824\n"
            "  sacked:0 lost:0 retrans:1 timers:none\n");
  const std::string json = snapshot_json(*sender, 8);
  EXPECT_TRUE(json_valid(json)) << json;
  EXPECT_EQ(
      json,
      "{\"conn\":8,\"state\":\"Open\",\"aborted\":false,"
      "\"cc\":\"newreno\",\"recovery\":\"prr\",\"rto_ms\":200,"
      "\"srtt_ms\":0,\"rttvar_ms\":0,\"backoffs\":0,\"mss\":1000,"
      "\"dupthresh\":3,\"reordering\":false,\"cwnd_bytes\":21000,"
      "\"ssthresh_bytes\":18446744073709551615,\"pipe_bytes\":0,"
      "\"snd_una\":20000,\"snd_nxt\":20000,\"peer_rwnd\":1073741824,"
      "\"sacked_segments\":0,\"lost_segments\":0,\"retransmits\":1,"
      "\"timers_pending\":false}");
}

TEST_F(SnapshotTest, GoldenZeroWindowStall) {
  make(tcp::RecoveryKind::kPrr);
  sender->write(20 * kMss);
  // The peer advertises a 1-byte window (0 encodes "not present" in this
  // simulator's segments): 15 kB of flight pinned, nothing sendable.
  ack(5 * kMss, {}, std::nullopt, /*rwnd=*/1);
  ASSERT_EQ(sender->state(), tcp::TcpState::kOpen);

  EXPECT_EQ(snapshot(*sender, 9),
            "conn 9 state:Open\n"
            "  newreno prr rto:200ms rtt:0.0/0.0ms mss:1000 dupthresh:3\n"
            "  cwnd:21.0 ssthresh:18446744073709551615 pipe:15000 "
            "una:5000 nxt:20000 rwnd:1\n"
            "  sacked:0 lost:0 retrans:0 timers:armed\n");
  const std::string json = snapshot_json(*sender, 9);
  EXPECT_TRUE(json_valid(json)) << json;
  EXPECT_EQ(
      json,
      "{\"conn\":9,\"state\":\"Open\",\"aborted\":false,"
      "\"cc\":\"newreno\",\"recovery\":\"prr\",\"rto_ms\":200,"
      "\"srtt_ms\":0,\"rttvar_ms\":0,\"backoffs\":0,\"mss\":1000,"
      "\"dupthresh\":3,\"reordering\":false,\"cwnd_bytes\":21000,"
      "\"ssthresh_bytes\":18446744073709551615,\"pipe_bytes\":15000,"
      "\"snd_una\":5000,\"snd_nxt\":20000,\"peer_rwnd\":1,"
      "\"sacked_segments\":0,\"lost_segments\":0,\"retransmits\":0,"
      "\"timers_pending\":true}");
}

TEST_F(SnapshotTest, NamesEveryKind) {
  // The snapshot's names are the one name table for the algorithm kinds.
  const std::pair<tcp::CcKind, const char*> ccs[] = {
      {tcp::CcKind::kNewReno, "newreno"},
      {tcp::CcKind::kCubic, "cubic"},
      {tcp::CcKind::kGaimd, "gaimd"},
      {tcp::CcKind::kBinomial, "binomial"}};
  const std::pair<tcp::RecoveryKind, const char*> recoveries[] = {
      {tcp::RecoveryKind::kRfc3517, "rfc3517"},
      {tcp::RecoveryKind::kLinuxRateHalving, "rate_halving"},
      {tcp::RecoveryKind::kPrr, "prr"}};
  for (const auto& [cc, cc_name] : ccs) {
    for (const auto& [recovery, recovery_name] : recoveries) {
      make(recovery, cc);
      const std::string names =
          std::string(cc_name) + " " + recovery_name + " ";
      EXPECT_EQ(snapshot(*sender, 1).find("\n  " + names),
                std::string("conn 1 state:Open").size())
          << snapshot(*sender, 1);
      const std::string json = snapshot_json(*sender, 1);
      EXPECT_NE(json.find(std::string("\"cc\":\"") + cc_name +
                          "\",\"recovery\":\"" + recovery_name + "\""),
                std::string::npos)
          << json;
    }
  }
}

}  // namespace
}  // namespace prr::obs
