// FlightRecorder ring semantics: preallocated power-of-two capacity,
// oldest-first reads, wrap-around drop accounting, per-type counts,
// listener fan-out, and the PRR_TRACE macro's null-recorder gate.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <vector>

#include "obs/flight_recorder.h"
#include "obs/store/store_writer.h"

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

// A record with every field set, distinct per i, so a stale or unwritten
// slot read by mistake would change the encoded bytes.
TraceRecord full_rec(uint64_t i) {
  return make_record(sim::Time::nanoseconds(static_cast<int64_t>(1000 * i)),
                     /*conn=*/9,
                     i % 3 == 0 ? TraceType::kAck : TraceType::kTransmit,
                     static_cast<uint8_t>(i), static_cast<uint16_t>(7 * i),
                     i, 2 * i, 1460 * i, i * i, 100 + i, 3);
}

std::vector<TraceRecord> held(const FlightRecorder& r) {
  std::vector<TraceRecord> out;
  const FlightRecorder::Runs runs = r.runs();
  for (int k = 0; k < 2; ++k) {
    out.insert(out.end(), runs.ptr[k], runs.ptr[k] + runs.len[k]);
  }
  return out;
}

std::vector<uint8_t> encoded(const FlightRecorder& r) {
  StoreEncoder enc;
  StoreShard shard;
  enc.encode(r, /*conn=*/9, kBlockFull, &shard);
  return shard.bytes;
}

std::vector<uint8_t> encoded(const std::vector<TraceRecord>& recs,
                             uint8_t flags) {
  StoreEncoder enc;
  StoreShard shard;
  enc.encode(recs.data(), recs.size(), /*conn=*/9, flags, &shard);
  return shard.bytes;
}

bool same_record(const TraceRecord& a, const TraceRecord& b) {
  return a.at_ns == b.at_ns && a.conn == b.conn && a.type == b.type &&
         a.a == b.a && a.b == b.b &&
         std::equal(std::begin(a.f), std::end(a.f), std::begin(b.f));
}

void expect_holds(const FlightRecorder& r,
                  const std::vector<TraceRecord>& want) {
  ASSERT_EQ(r.size(), want.size());
  const std::vector<TraceRecord> runs = held(r);
  const std::vector<TraceRecord> tail = r.tail(want.size() + 5);
  ASSERT_EQ(runs.size(), want.size());
  ASSERT_EQ(tail.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_TRUE(same_record(r[i], want[i])) << i;
    EXPECT_TRUE(same_record(runs[i], want[i])) << i;
    EXPECT_TRUE(same_record(tail[i], want[i])) << i;
  }
}

// The ring is uninitialized storage: every read path (operator[], runs(),
// tail(), the store encoder) must see exactly the records written since
// the last clear(), never an unwritten slot or one left from before it.
// Under ASan/UBSan this also checks that no path reads past the ring.
TEST(FlightRecorder, UninitializedRingReadsOnlyWrittenRecords) {
  FlightRecorder r(8);
  EXPECT_TRUE(held(r).empty());
  EXPECT_TRUE(r.tail(4).empty());
  EXPECT_TRUE(encoded(r).empty());

  // Partly filled: one run over the written prefix.
  std::vector<TraceRecord> want;
  for (uint64_t i = 0; i < 5; ++i) {
    want.push_back(full_rec(i));
    r.write(want.back());
  }
  EXPECT_EQ(r.runs().len[1], 0u);
  expect_holds(r, want);
  EXPECT_EQ(encoded(r), encoded(want, kBlockFull));

  // Wrapped: two runs holding the newest 8, encoded as truncated.
  for (uint64_t i = 5; i < 19; ++i) {
    want.push_back(full_rec(i));
    r.write(want.back());
  }
  want.erase(want.begin(), want.end() - 8);
  EXPECT_GT(r.runs().len[1], 0u);
  EXPECT_EQ(r.dropped(), 11u);
  expect_holds(r, want);
  EXPECT_EQ(encoded(r), encoded(want, kBlockFull | kBlockTruncated));

  // After clear() the old records are unreachable, and a refill encodes
  // byte-identically to a fresh recorder holding the same records.
  r.clear();
  EXPECT_TRUE(held(r).empty());
  EXPECT_TRUE(encoded(r).empty());
  FlightRecorder fresh(8);
  want.clear();
  for (uint64_t i = 100; i < 103; ++i) {
    want.push_back(full_rec(i));
    r.write(want.back());
    fresh.write(want.back());
  }
  expect_holds(r, want);
  EXPECT_EQ(encoded(r), encoded(fresh));
  EXPECT_EQ(encoded(r), encoded(want, kBlockFull));
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
