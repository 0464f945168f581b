// Exporters: Chrome trace-event/Perfetto JSON (golden-string check on a
// synthetic record set, structural checks on a real lossy transfer) and
// the ss(8)-style sender snapshot in both text and JSON forms.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>

#include "net/loss_model.h"
#include "obs/flight_recorder.h"
#include "obs/instrument.h"
#include "obs/json.h"
#include "obs/perfetto.h"
#include "obs/snapshot.h"
#include "sim/simulator.h"
#include "tcp/connection.h"

namespace prr::obs {
namespace {

// The exporter's output is a stable function of its input; this golden
// string IS the format contract (ts in fractional microseconds, one
// process, tid = connection id, counter tracks per connection, sentinel
// metadata event closing the array).
TEST(Perfetto, GoldenSyntheticTrace) {
  std::vector<TraceRecord> records;
  records.push_back(make_record(sim::Time::nanoseconds(1500), 7,
                                TraceType::kAck, /*a=*/0, /*b=*/0,
                                /*ack=*/1000, /*cwnd=*/14608,
                                /*pipe=*/10000, /*ssthresh=*/7304,
                                /*delivered=*/2920, /*nxt=*/20000));
  records.push_back(make_record(sim::Time::nanoseconds(2000), 7,
                                TraceType::kPrr, /*a=*/1, /*b=*/0,
                                /*prr_delivered=*/2920, /*prr_out=*/1460,
                                /*recover_fs=*/14600, /*ssthresh=*/7304,
                                /*cwnd=*/8764));

  const std::string expected =
      "{\"traceEvents\":[\n"
      "{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\",\"args\":{\"name\":"
      "\"prr simulator\"}},\n"
      "{\"ph\":\"M\",\"pid\":1,\"tid\":7,\"name\":\"thread_name\",\"args\":{"
      "\"name\":\"conn 7\"}},\n"
      "{\"ph\":\"C\",\"pid\":1,\"tid\":7,\"ts\":1.500,\"name\":\"conn7 "
      "window\",\"args\":{\"cwnd\":14608,\"pipe\":10000,\"ssthresh\":7304}},\n"
      "{\"ph\":\"C\",\"pid\":1,\"tid\":7,\"ts\":2.000,\"name\":\"conn7 "
      "prr\",\"args\":{\"prr_delivered\":2920,\"prr_out\":1460}},\n"
      "{\"ph\":\"M\",\"pid\":1,\"name\":\"trace_complete\",\"args\":{"
      "\"records\":2}}\n"
      "]}\n";

  const std::string json = perfetto_trace_json(records);
  EXPECT_EQ(json, expected);
  EXPECT_TRUE(json_valid(json));
}

TEST(Perfetto, SlicesFaultsAndInstants) {
  std::vector<TraceRecord> records;
  records.push_back(make_record(sim::Time::milliseconds(1), 2,
                                TraceType::kEnterRecovery, 0, 0, 20000, 7304,
                                9000, 14608, 30000));
  records.push_back(make_record(sim::Time::milliseconds(2), 2,
                                TraceType::kFault, /*a=blackout*/ 0, 0,
                                /*duration_ns=*/1'000'000));
  records.push_back(make_record(sim::Time::milliseconds(3), 2,
                                TraceType::kExitRecovery, 0, 0, 7304, 0));
  records.push_back(make_record(sim::Time::milliseconds(4), 2,
                                TraceType::kRtoFired, 0, 0, 1, 2, 3, 4, 5));
  records.push_back(make_record(sim::Time::milliseconds(5), 2,
                                TraceType::kTransmit, /*retx=*/1, 2, 1000,
                                1460));
  // Wire records are deliberately not exported.
  records.push_back(make_record(sim::Time::milliseconds(6), 2,
                                TraceType::kWireData, 0, 0, 1000, 1460));

  const std::string json = perfetto_trace_json(records);
  EXPECT_TRUE(json_valid(json)) << json;
  EXPECT_NE(json.find("\"ph\":\"B\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"E\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"fast recovery\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\":1000.000"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"rto_fired\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"retransmit\""), std::string::npos);
  EXPECT_EQ(json.find("wire"), std::string::npos);
}

std::size_t count_of(const std::string& haystack, const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t at = haystack.find(needle); at != std::string::npos;
       at = haystack.find(needle, at + needle.size())) {
    ++n;
  }
  return n;
}

// Slices close by EpisodeBuilder's rule: an RTO in recovery and an
// in-recovery undo (kUndo a=0) each end the open slice, per connection;
// a spurious-RTO undo (a=1) and an exit with no open slice end nothing.
TEST(Perfetto, RtoAndUndoCloseRecoverySlices) {
  using sim::Time;
  std::vector<TraceRecord> records = {
      make_record(Time::milliseconds(1), 3, TraceType::kEnterRecovery, 0, 0,
                  20000, 7304, 9000, 14608),
      make_record(Time::milliseconds(1), 4, TraceType::kEnterRecovery, 0, 0,
                  20000, 7304, 9000, 14608),
      make_record(Time::milliseconds(2), 3, TraceType::kRtoFired, 0, 0, 1, 2,
                  3, 4, 5),
      make_record(Time::milliseconds(3), 3, TraceType::kEnterRecovery, 0, 0,
                  20000, 7304, 9000, 14608),
      make_record(Time::milliseconds(4), 3, TraceType::kUndo, /*a=*/0, 0,
                  14608, 7304, 9000),
      make_record(Time::milliseconds(5), 3, TraceType::kUndo, /*a=*/1, 0,
                  14608, 7304, 9000),
      make_record(Time::milliseconds(6), 3, TraceType::kExitRecovery, 0, 0,
                  7304, 0),
      make_record(Time::milliseconds(7), 4, TraceType::kExitRecovery, 0, 0,
                  7304, 0),
  };
  const std::string json = perfetto_trace_json(records);
  EXPECT_TRUE(json_valid(json)) << json;
  EXPECT_EQ(count_of(json, "\"ph\":\"B\""), 3u) << json;
  EXPECT_EQ(count_of(json, "\"ph\":\"E\""), 3u) << json;
  EXPECT_NE(json.find("\"ph\":\"E\",\"pid\":1,\"tid\":3,\"ts\":2000.000"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"ph\":\"E\",\"pid\":1,\"tid\":3,\"ts\":4000.000"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"ph\":\"E\",\"pid\":1,\"tid\":4,\"ts\":7000.000"),
            std::string::npos)
      << json;
}

// Drive a real lossy transfer and export its ring: the recovery episode
// instrumented in tcp/sender must produce a loadable trace with window
// counters and a balanced fast-recovery slice.
TEST(Perfetto, RealTransferExportsCleanly) {
  sim::Simulator sim;
  tcp::ConnectionConfig cfg;
  cfg.sender.mss = 1000;
  cfg.sender.handshake_rtt = sim::Time::milliseconds(50);
  cfg.path = net::Path::Config::symmetric(util::DataRate::mbps(4),
                                          sim::Time::milliseconds(50), 100);
  tcp::Connection conn(sim, cfg, sim::Rng(1));
  FlightRecorder recorder(1 << 14);
  Instrument instrument(sim, conn, recorder, /*conn_id=*/9);
  conn.path().data_link().set_loss_model(
      std::make_unique<net::DeterministicLoss>(std::set<uint64_t>{3, 4}));
  conn.write(40'000);
  sim.run(sim::Time::seconds(30));
  ASSERT_TRUE(conn.sender().all_acked());

  EXPECT_GT(recorder.count(TraceType::kAck), 10u);
  EXPECT_GT(recorder.count(TraceType::kWireData), 10u);
  EXPECT_EQ(recorder.count(TraceType::kEnterRecovery),
            recorder.count(TraceType::kExitRecovery));
  EXPECT_GE(recorder.count(TraceType::kEnterRecovery), 1u);

  const std::string json = perfetto_trace_json(recorder);
  EXPECT_TRUE(json_valid(json));
  EXPECT_NE(json.find("\"name\":\"conn 9\""), std::string::npos);
  EXPECT_NE(json.find("conn9 window"), std::string::npos);
  EXPECT_NE(json.find("conn9 prr"), std::string::npos);
  EXPECT_NE(json.find("fast recovery"), std::string::npos);
}

TEST(Snapshot, TextAndJsonForms) {
  sim::Simulator sim;
  tcp::ConnectionConfig cfg;
  cfg.sender.mss = 1000;
  cfg.path = net::Path::Config::symmetric(util::DataRate::mbps(4),
                                          sim::Time::milliseconds(40), 100);
  tcp::Connection conn(sim, cfg, sim::Rng(3));
  conn.write(20'000);
  sim.run(sim::Time::seconds(10));
  ASSERT_TRUE(conn.sender().all_acked());

  const std::string text = snapshot(conn.sender(), /*conn_id=*/4);
  EXPECT_NE(text.find("conn 4"), std::string::npos) << text;
  EXPECT_NE(text.find("state:Open"), std::string::npos) << text;
  EXPECT_NE(text.find("cwnd:"), std::string::npos) << text;
  EXPECT_NE(text.find("rto:"), std::string::npos) << text;

  const std::string json = snapshot_json(conn.sender(), /*conn_id=*/4);
  EXPECT_TRUE(json_valid(json)) << json;
  EXPECT_NE(json.find("\"conn\":4"), std::string::npos);
  EXPECT_NE(json.find("\"state\":\"Open\""), std::string::npos);
  EXPECT_NE(json.find("\"snd_una\":20000"), std::string::npos);
}

}  // namespace
}  // namespace prr::obs
