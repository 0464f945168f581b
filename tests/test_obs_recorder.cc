// FlightRecorder ring semantics: preallocated power-of-two capacity,
// oldest-first reads, wrap-around drop accounting, per-type counts,
// listener fan-out, and the PRR_TRACE macro's null-recorder gate.
#include <gtest/gtest.h>

#include <vector>

#include "obs/flight_recorder.h"

namespace prr::obs {
namespace {

TraceRecord rec_at(int64_t ns, TraceType type = TraceType::kAck) {
  return make_record(sim::Time::nanoseconds(ns), /*conn=*/1, type);
}

TEST(FlightRecorder, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(FlightRecorder(1).capacity(), 2u);
  EXPECT_EQ(FlightRecorder(2).capacity(), 2u);
  EXPECT_EQ(FlightRecorder(3).capacity(), 4u);
  EXPECT_EQ(FlightRecorder(1000).capacity(), 1024u);
  EXPECT_EQ(FlightRecorder(4096).capacity(), 4096u);
}

TEST(FlightRecorder, StoresOldestFirstBeforeWrap) {
  FlightRecorder r(8);
  for (int i = 0; i < 5; ++i) r.write(rec_at(i));
  ASSERT_EQ(r.size(), 5u);
  EXPECT_EQ(r.total_written(), 5u);
  EXPECT_EQ(r.dropped(), 0u);
  for (std::size_t i = 0; i < r.size(); ++i) {
    EXPECT_EQ(r[i].at_ns, static_cast<int64_t>(i));
  }
}

TEST(FlightRecorder, WrapOverwritesOldestAndCountsDrops) {
  FlightRecorder r(8);
  for (int i = 0; i < 21; ++i) r.write(rec_at(i));
  EXPECT_EQ(r.capacity(), 8u);
  EXPECT_EQ(r.size(), 8u);
  EXPECT_EQ(r.total_written(), 21u);
  EXPECT_EQ(r.dropped(), 13u);
  // Survivors are the newest 8, oldest first: 13..20.
  for (std::size_t i = 0; i < r.size(); ++i) {
    EXPECT_EQ(r[i].at_ns, static_cast<int64_t>(13 + i));
  }
}

TEST(FlightRecorder, TailReturnsNewestRecordsOldestFirst) {
  FlightRecorder r(8);
  for (int i = 0; i < 12; ++i) r.write(rec_at(i));
  const std::vector<TraceRecord> tail = r.tail(3);
  ASSERT_EQ(tail.size(), 3u);
  EXPECT_EQ(tail[0].at_ns, 9);
  EXPECT_EQ(tail[1].at_ns, 10);
  EXPECT_EQ(tail[2].at_ns, 11);
  // Asking for more than held returns everything held.
  EXPECT_EQ(r.tail(100).size(), 8u);
}

TEST(FlightRecorder, PerTypeCounts) {
  FlightRecorder r(16);
  r.write(rec_at(0, TraceType::kAck));
  r.write(rec_at(1, TraceType::kAck));
  r.write(rec_at(2, TraceType::kTransmit));
  r.write(rec_at(3, TraceType::kRtoFired));
  EXPECT_EQ(r.count(TraceType::kAck), 2u);
  EXPECT_EQ(r.count(TraceType::kTransmit), 1u);
  EXPECT_EQ(r.count(TraceType::kRtoFired), 1u);
  EXPECT_EQ(r.count(TraceType::kUndo), 0u);
  // Counts survive wrap (they count writes, not survivors).
  for (int i = 0; i < 40; ++i) r.write(rec_at(i, TraceType::kAck));
  EXPECT_EQ(r.count(TraceType::kAck), 42u);
}

TEST(FlightRecorder, ListenersSeeEveryRecordInOrder) {
  FlightRecorder r(4);
  std::vector<int64_t> seen_a;
  std::vector<int64_t> seen_b;
  r.add_listener([&](const TraceRecord& rec) { seen_a.push_back(rec.at_ns); });
  r.add_listener([&](const TraceRecord& rec) { seen_b.push_back(rec.at_ns); });
  for (int i = 0; i < 10; ++i) r.write(rec_at(i));
  // Fan-out is not limited by ring capacity.
  ASSERT_EQ(seen_a.size(), 10u);
  EXPECT_EQ(seen_a, seen_b);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(seen_a[i], i);
}

TEST(FlightRecorder, ClearResetsEverything) {
  FlightRecorder r(4);
  for (int i = 0; i < 9; ++i) r.write(rec_at(i));
  r.clear();
  EXPECT_EQ(r.size(), 0u);
  EXPECT_EQ(r.total_written(), 0u);
  EXPECT_EQ(r.dropped(), 0u);
  EXPECT_EQ(r.count(TraceType::kAck), 0u);
  r.write(rec_at(42));
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r[0].at_ns, 42);
}

TEST(TraceMacro, NullRecorderIsANoOpAndSkipsArgumentEvaluation) {
  FlightRecorder* rec = nullptr;
  int evaluated = 0;
  auto arg = [&] {
    ++evaluated;
    return uint64_t{7};
  };
  PRR_TRACE(rec, sim::Time::zero(), 0, TraceType::kAck, 0, 0, arg());
  EXPECT_EQ(evaluated, 0);

  FlightRecorder ring(4);
  rec = &ring;
  PRR_TRACE(rec, sim::Time::zero(), 0, TraceType::kAck, 0, 0, arg());
  EXPECT_EQ(evaluated, 1);
  EXPECT_EQ(ring.total_written(), 1u);
  EXPECT_EQ(ring[0].f[0], 7u);
}

TEST(TraceRecord, DescribeNamesEveryType) {
  for (int t = 0; t < static_cast<int>(TraceType::kCount); ++t) {
    const TraceType type = static_cast<TraceType>(t);
    EXPECT_STRNE(to_string(type), "?") << "unnamed type " << t;
    const std::string line = describe(rec_at(1'234'567, type));
    EXPECT_NE(line.find(to_string(type)), std::string::npos) << line;
  }
}

}  // namespace
}  // namespace prr::obs
