// PcapWriter: the emitted byte stream must be a structurally valid
// classic pcap (parsable global header, self-consistent record lengths,
// correct Ethernet/IP/TCP framing and option encoding).
#include "trace/pcap.h"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <sstream>
#include <vector>

#include "net/loss_model.h"
#include "obs/instrument.h"
#include "sim/simulator.h"
#include "tcp/connection.h"

namespace prr::trace {
namespace {

using namespace prr::sim::literals;

uint32_t rd32(const std::string& s, std::size_t off) {
  return static_cast<uint8_t>(s[off]) |
         static_cast<uint8_t>(s[off + 1]) << 8 |
         static_cast<uint8_t>(s[off + 2]) << 16 |
         static_cast<uint8_t>(s[off + 3]) << 24;
}
uint32_t rd32be(const std::string& s, std::size_t off) {
  return static_cast<uint8_t>(s[off]) << 24 |
         static_cast<uint8_t>(s[off + 1]) << 16 |
         static_cast<uint8_t>(s[off + 2]) << 8 |
         static_cast<uint8_t>(s[off + 3]);
}

struct ParsedCapture {
  std::size_t packets = 0;
  std::vector<std::size_t> record_offsets;
};

ParsedCapture parse(const std::string& blob) {
  ParsedCapture out;
  EXPECT_GE(blob.size(), 24u);
  EXPECT_EQ(rd32(blob, 0), 0xA1B2C3D4u);  // magic
  EXPECT_EQ(rd32(blob, 20), 1u);          // LINKTYPE_ETHERNET
  std::size_t off = 24;
  while (off + 16 <= blob.size()) {
    const uint32_t incl = rd32(blob, off + 8);
    const uint32_t orig = rd32(blob, off + 12);
    EXPECT_LE(incl, orig);
    out.record_offsets.push_back(off);
    off += 16 + incl;
    ++out.packets;
  }
  EXPECT_EQ(off, blob.size());  // no trailing garbage
  return out;
}

net::Segment data_seg(uint64_t seq, uint32_t len) {
  net::Segment s;
  s.seq = seq;
  s.len = len;
  return s;
}

TEST(Pcap, GlobalHeaderAndRecordsParse) {
  std::ostringstream os;
  PcapWriter w(os);
  w.record(data_seg(0, 1000), 1_ms, true);
  w.record(data_seg(1000, 1000), 2_ms, true);
  net::Segment ack;
  ack.is_ack = true;
  ack.ack = 2000;
  w.record(ack, 3_ms, false);
  const std::string blob = os.str();
  ParsedCapture cap = parse(blob);
  EXPECT_EQ(cap.packets, 3u);
  EXPECT_EQ(w.packets_written(), 3u);
}

TEST(Pcap, SnaplenTruncatesPayloadButKeepsOrigLen) {
  std::ostringstream os;
  PcapWriter::Config cfg;
  cfg.snap_payload = 16;
  PcapWriter w(os, cfg);
  w.record(data_seg(0, 1460), 1_ms, true);
  const std::string blob = os.str();
  const uint32_t incl = rd32(blob, 24 + 8);
  const uint32_t orig = rd32(blob, 24 + 12);
  EXPECT_EQ(orig - incl, 1460u - 16u);
}

TEST(Pcap, TcpHeaderCarriesWireSequenceNumbers) {
  std::ostringstream os;
  PcapWriter w(os);
  // A sequence beyond 2^32 must wrap on the wire.
  const uint64_t big_seq = (1ull << 32) + 5000;
  w.record(data_seg(big_seq, 100), 1_ms, true);
  const std::string blob = os.str();
  // Offsets: 24 pcap hdr + 16 rec hdr + 14 eth + 20 ip = 74; seq at +4.
  const std::size_t tcp_off = 24 + 16 + 14 + 20;
  EXPECT_EQ(rd32be(blob, tcp_off + 4), 5000u);
}

TEST(Pcap, SackBlocksEncodedAsOptions) {
  std::ostringstream os;
  PcapWriter w(os);
  net::Segment ack;
  ack.is_ack = true;
  ack.ack = 1000;
  ack.sacks.push_back({3000, 4000});
  ack.dsack = net::SackBlock{0, 1000};
  w.record(ack, 1_ms, false);
  const std::string blob = os.str();
  const std::size_t tcp_off = 24 + 16 + 14 + 20;
  // Find the SACK option (kind 5) in the options area.
  const std::size_t opts_off = tcp_off + 20;
  bool found = false;
  for (std::size_t i = opts_off; i + 2 < blob.size(); ++i) {
    if (static_cast<uint8_t>(blob[i]) == 5 &&
        static_cast<uint8_t>(blob[i + 1]) == 2 + 16) {
      found = true;
      // DSACK block first (RFC 2883 ordering).
      EXPECT_EQ(rd32be(blob, i + 2), 0u);
      EXPECT_EQ(rd32be(blob, i + 6), 1000u);
      EXPECT_EQ(rd32be(blob, i + 10), 3000u);
      break;
    }
  }
  EXPECT_TRUE(found);
}

TEST(Pcap, TimestampOptionEncoded) {
  std::ostringstream os;
  PcapWriter w(os);
  net::Segment seg = data_seg(0, 100);
  seg.has_ts = true;
  seg.tsval = 777;
  seg.tsecr = 555;
  w.record(seg, 1_ms, true);
  const std::string blob = os.str();
  const std::size_t opts_off = 24 + 16 + 14 + 20 + 20;
  bool found = false;
  for (std::size_t i = opts_off; i + 10 < blob.size(); ++i) {
    if (static_cast<uint8_t>(blob[i]) == 8 &&
        static_cast<uint8_t>(blob[i + 1]) == 10) {
      EXPECT_EQ(rd32be(blob, i + 2), 777u);
      EXPECT_EQ(rd32be(blob, i + 6), 555u);
      found = true;
      break;
    }
  }
  EXPECT_TRUE(found);
}

TEST(Pcap, AttachedTapCapturesWholeConnection) {
  sim::Simulator sim;
  tcp::ConnectionConfig cfg;
  cfg.sender.mss = 1000;
  cfg.sender.handshake_rtt = 50_ms;
  cfg.path =
      net::Path::Config::symmetric(util::DataRate::mbps(4), 50_ms, 100);
  tcp::Connection conn(sim, cfg, sim::Rng(1));
  std::ostringstream os;
  PcapWriter w(os);
  obs::FlightRecorder recorder;
  obs::Instrument instrument(sim, conn, recorder, /*conn_id=*/0);
  w.attach(instrument);
  conn.path().data_link().set_loss_model(
      std::make_unique<net::DeterministicLoss>(std::set<uint64_t>{2}));
  conn.write(10'000);
  sim.run(sim::Time::seconds(30));
  ASSERT_TRUE(conn.sender().all_acked());
  ParsedCapture cap = parse(os.str());
  // 10 data + 1 retransmit + the ACK stream: comfortably more than 15.
  EXPECT_GT(cap.packets, 15u);
  EXPECT_EQ(cap.packets, w.packets_written());
}

}  // namespace
}  // namespace prr::trace
