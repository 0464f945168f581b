// The columnar trace store (obs/store/): varint/zigzag primitives,
// randomized encode/decode round-trips across every record type and
// block boundary, truncated-file and corrupted-digest rejection, the
// capture-policy grammar, and the store-vs-live differentials — records
// persisted through a sweep must equal the live trace_connection()
// stream, and an EpisodeTable rebuilt from the store must reconcile
// field-exactly with the live-folded one.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <tuple>
#include <vector>

#include "chaos_store_input.h"
#include "exp/experiment.h"
#include "obs/flight_recorder.h"
#include "obs/query.h"
#include "obs/store/capture_policy.h"
#include "obs/store/store_format.h"
#include "obs/store/store_reader.h"
#include "obs/store/store_writer.h"
#include "sim/rng.h"
#include "text_mutator.h"
#include "workload/web_workload.h"

namespace prr {
namespace {

using obs::StoreBlockMeta;
using obs::StoreMeta;
using obs::StoreReader;
using obs::StoreShard;
using obs::StoreWriter;
using obs::TraceRecord;
using obs::TraceType;

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "prr_store_test_" + name;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void spit(const std::string& path, const std::string& body) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(body.data(), static_cast<std::streamsize>(body.size()));
}

TEST(StoreFormat, VarintRoundTrip) {
  std::vector<uint64_t> values = {0,       1,        127,     128,
                                  16383,   16384,    UINT64_MAX,
                                  1u << 21, (1ull << 63) - 1};
  sim::Mt64 rng(7);
  for (int i = 0; i < 200; ++i) values.push_back(rng());
  std::vector<uint8_t> buf;
  for (uint64_t v : values) obs::put_varint(buf, v);
  const uint8_t* p = buf.data();
  const uint8_t* end = p + buf.size();
  for (uint64_t v : values) {
    uint64_t got = 0;
    ASSERT_TRUE(obs::get_varint(&p, end, &got));
    EXPECT_EQ(got, v);
  }
  EXPECT_EQ(p, end);
}

TEST(StoreFormat, ZigzagRoundTrip) {
  std::vector<int64_t> values = {0,  1,  -1, 63, -64, INT64_MAX,
                                 INT64_MIN};
  sim::Mt64 rng(11);
  for (int i = 0; i < 200; ++i) values.push_back(static_cast<int64_t>(rng()));
  for (int64_t v : values) {
    EXPECT_EQ(obs::zigzag_decode(obs::zigzag_encode(v)), v);
  }
}

TEST(StoreFormat, VarintRejectsTruncation) {
  std::vector<uint8_t> buf;
  obs::put_varint(buf, UINT64_MAX);
  for (std::size_t keep = 0; keep + 1 < buf.size(); ++keep) {
    const uint8_t* p = buf.data();
    uint64_t v;
    EXPECT_FALSE(obs::get_varint(&p, buf.data() + keep, &v));
  }
}

TEST(StoreFormat, VarintRejectsOverflow) {
  // A 10-byte varint carries bits 63.. in its last byte, so only 0 and 1
  // fit in 64 bits; anything above would be silently truncated.
  for (unsigned last = 0; last < 0x80; ++last) {
    std::vector<uint8_t> buf(9, 0xFF);
    buf.push_back(static_cast<uint8_t>(last));
    const uint8_t* p = buf.data();
    uint64_t v = 0;
    const bool fits = last <= 1;
    EXPECT_EQ(obs::get_varint(&p, buf.data() + buf.size(), &v), fits)
        << last;
    if (fits) {
      EXPECT_EQ(v, last == 1 ? UINT64_MAX : UINT64_MAX >> 1);
    }
    const uint8_t* q = buf.data();
    EXPECT_EQ(obs::skip_varints(&q, buf.data() + buf.size(), 1), fits)
        << last;
  }
  // Eleven bytes is too long whatever they hold.
  std::vector<uint8_t> eleven(10, 0x80);
  eleven.push_back(0);
  const uint8_t* p = eleven.data();
  uint64_t v = 0;
  EXPECT_FALSE(obs::get_varint(&p, eleven.data() + eleven.size(), &v));
  p = eleven.data();
  EXPECT_FALSE(obs::skip_varints(&p, eleven.data() + eleven.size(), 1));
}

// skip_varints must accept exactly what n get_varint calls accept and stop
// where they stop, at every alignment and across word boundaries: byte
// strings mixing terminators, continuation runs of up to 12 bytes and
// 10th bytes on both sides of the overflow limit.
TEST(StoreFormat, SkipVarintsMatchesGetVarint) {
  sim::Mt64 rng(17);
  for (int trial = 0; trial < 4000; ++trial) {
    std::vector<uint8_t> buf;
    const std::size_t len = rng() % 40;
    while (buf.size() < len) {
      const std::size_t run = rng() % 4 == 0 ? rng() % 13 : rng() % 3;
      for (std::size_t k = 0; k < run; ++k) {
        buf.push_back(static_cast<uint8_t>(0x80 | rng()));
      }
      buf.push_back(static_cast<uint8_t>(rng() % 3 == 0 ? rng() % 3
                                                        : rng() & 0x7F));
    }
    const uint8_t* end = buf.data() + buf.size();
    for (std::size_t n = 0; n <= 12; ++n) {
      const uint8_t* want = buf.data();
      bool ok = true;
      for (std::size_t k = 0; k < n && ok; ++k) {
        uint64_t v = 0;
        ok = obs::get_varint(&want, end, &v);
      }
      const uint8_t* got = buf.data();
      ASSERT_EQ(obs::skip_varints(&got, end, n), ok)
          << "trial " << trial << " n " << n;
      if (ok) {
        ASSERT_EQ(got, want) << "trial " << trial << " n " << n;
      }
    }
  }
}

TEST(StoreFormat, PathForArm) {
  EXPECT_EQ(obs::store_path_for_arm("sweep.prrstore", "RFC 3517"),
            "sweep.rfc_3517.prrstore");
  EXPECT_EQ(obs::store_path_for_arm("sweep.prrstore", "PRR"),
            "sweep.prr.prrstore");
  EXPECT_EQ(obs::store_path_for_arm("/tmp/out", "Linux"),
            "/tmp/out.linux.prrstore");
}

// Random records spanning every type, every field width, negative-ish
// time deltas via shuffled timestamps — the codec must be lossless.
std::vector<TraceRecord> random_records(std::size_t n, uint64_t conn,
                                        uint64_t seed) {
  sim::Mt64 rng(seed);
  std::vector<TraceRecord> recs(n);
  int64_t t = 0;
  for (std::size_t i = 0; i < n; ++i) {
    TraceRecord& r = recs[i];
    // Mostly forward time with occasional large jumps; the codec must
    // not assume monotonicity (merged views could interleave).
    t += static_cast<int64_t>(rng() % 1000000) - 1000;
    r.at_ns = t;
    r.conn = static_cast<uint32_t>(conn);
    r.type = static_cast<TraceType>(
        rng() % static_cast<uint64_t>(TraceType::kCount));
    r.a = static_cast<uint8_t>(rng());
    r.b = static_cast<uint16_t>(rng());
    for (int k = 0; k < 6; ++k) {
      // Mix of small counters, byte-sized fields and full-width values
      // (bit-cast doubles, e.g. kFault's scale, use all 64 bits).
      switch (rng() % 3) {
        case 0: r.f[k] = rng() % 64; break;
        case 1: r.f[k] = rng() % (1u << 24); break;
        default: r.f[k] = rng(); break;
      }
    }
  }
  return recs;
}

void expect_records_equal(const std::vector<TraceRecord>& a,
                          const std::vector<TraceRecord>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].at_ns, b[i].at_ns) << "record " << i;
    EXPECT_EQ(a[i].conn, b[i].conn) << "record " << i;
    EXPECT_EQ(a[i].type, b[i].type) << "record " << i;
    EXPECT_EQ(a[i].a, b[i].a) << "record " << i;
    EXPECT_EQ(a[i].b, b[i].b) << "record " << i;
    for (int k = 0; k < 6; ++k) {
      EXPECT_EQ(a[i].f[k], b[i].f[k]) << "record " << i << " f" << k;
    }
  }
}

TEST(StoreCodec, RoundTripRandomRecords) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    const auto recs = random_records(500 + seed * 37, /*conn=*/seed, seed);
    StoreShard shard;
    obs::StoreEncoder enc;
    enc.encode(recs.data(), recs.size(), seed, obs::kBlockFull, &shard);
    ASSERT_EQ(shard.blocks.size(), 1u);
    std::vector<TraceRecord> back;
    ASSERT_TRUE(obs::decode_block(shard.bytes.data() + shard.blocks[0].offset,
                                  shard.blocks[0].bytes,
                                  shard.blocks[0].records, seed, &back));
    expect_records_equal(recs, back);
  }
}

TEST(StoreCodec, SplitsAtBlockBoundary) {
  const std::size_t n = obs::kMaxBlockRecords + 1234;
  const auto recs = random_records(n, /*conn=*/9, /*seed=*/99);
  StoreShard shard;
  obs::StoreEncoder enc;
  enc.encode(recs.data(), recs.size(), 9, obs::kBlockSampled, &shard);
  ASSERT_EQ(shard.blocks.size(), 2u);
  EXPECT_EQ(shard.blocks[0].records, obs::kMaxBlockRecords);
  EXPECT_EQ(shard.blocks[1].records, 1234u);
  std::vector<TraceRecord> back;
  for (const StoreBlockMeta& b : shard.blocks) {
    ASSERT_TRUE(obs::decode_block(shard.bytes.data() + b.offset, b.bytes,
                                  b.records, b.conn, &back));
    EXPECT_EQ(b.flags, obs::kBlockSampled);
  }
  expect_records_equal(recs, back);
}

TEST(StoreCodec, RejectsTruncatedAndPaddedPayload) {
  const auto recs = random_records(64, 1, 5);
  StoreShard shard;
  obs::StoreEncoder enc;
  enc.encode(recs.data(), recs.size(), 1, 0, &shard);
  const StoreBlockMeta& b = shard.blocks[0];
  std::vector<TraceRecord> back;
  // Every truncation point must fail, not crash or mis-decode.
  for (uint32_t keep = 0; keep < b.bytes; keep += 7) {
    back.clear();
    EXPECT_FALSE(obs::decode_block(shard.bytes.data(), keep, b.records, 1,
                                   &back));
  }
  // Trailing garbage is malformed too.
  shard.bytes.push_back(0);
  back.clear();
  EXPECT_FALSE(obs::decode_block(shard.bytes.data(), b.bytes + 1,
                                 b.records, 1, &back));
}

TEST(StoreCodec, RejectsInvalidTypeByte) {
  const auto recs = random_records(4, 1, 6);
  StoreShard shard;
  obs::StoreEncoder enc;
  enc.encode(recs.data(), recs.size(), 1, 0, &shard);
  // The type column sits right after 4 timestamp varints; stomp every
  // byte in turn with an out-of-range type value — decode must either
  // reject or produce only valid enum values, never out-of-range ones.
  for (std::size_t i = 0; i < shard.bytes.size(); ++i) {
    std::vector<uint8_t> bytes = shard.bytes;
    bytes[i] = 0xEE;
    std::vector<TraceRecord> back;
    if (obs::decode_block(bytes.data(), shard.blocks[0].bytes,
                          shard.blocks[0].records, 1, &back)) {
      for (const TraceRecord& r : back) {
        EXPECT_LT(static_cast<uint8_t>(r.type),
                  static_cast<uint8_t>(TraceType::kCount));
        EXPECT_LE(r.b, UINT16_MAX);
      }
    }
  }
}

// A projected decode fills in exactly the masked columns (type and conn
// always) and leaves every other field zero.
TEST(StoreCodec, ProjectedDecodeFillsOnlyMaskedColumns) {
  const auto recs = random_records(300, 4, 12);
  StoreShard shard;
  obs::StoreEncoder enc;
  enc.encode(recs.data(), recs.size(), 4, 0, &shard);
  const StoreBlockMeta& b = shard.blocks[0];
  sim::Mt64 rng(19);
  std::vector<obs::ColumnMask> masks = {0, obs::kAllColumns};
  for (int c = 0; c < 10; ++c) masks.push_back(1u << c);
  for (int k = 0; k < 20; ++k) masks.push_back(rng() & obs::kAllColumns);
  for (obs::ColumnMask mask : masks) {
    SCOPED_TRACE(mask);
    std::vector<TraceRecord> want = recs;
    for (TraceRecord& r : want) {
      if ((mask & obs::kColumnAt) == 0) r.at_ns = 0;
      if ((mask & obs::kColumnA) == 0) r.a = 0;
      if ((mask & obs::kColumnB) == 0) r.b = 0;
      for (int k = 0; k < 6; ++k) {
        if ((mask & (obs::kColumnF0 << k)) == 0) r.f[k] = 0;
      }
    }
    std::vector<TraceRecord> back;
    ASSERT_TRUE(obs::decode_block(shard.bytes.data(), b.bytes, b.records,
                                  4, &back, mask));
    expect_records_equal(want, back);
  }
}

// The type and b range checks hold whatever the mask: a block is well
// formed or not independently of which columns a query decodes.
TEST(StoreCodec, RangeChecksHoldUnderEveryMask) {
  const uint8_t ok_type = static_cast<uint8_t>(TraceType::kAck);
  const uint8_t bad_type = static_cast<uint8_t>(TraceType::kCount);
  for (const auto& [type, b, valid] :
       std::vector<std::tuple<uint8_t, uint64_t, bool>>{
           {ok_type, 5, true},
           {ok_type, UINT16_MAX, true},
           {ok_type, UINT16_MAX + 1ull, false},
           {ok_type, 1ull << 40, false},
           {bad_type, 5, false},
       }) {
    // One record: at_ns, type, a, b, then f0..f5.
    std::vector<uint8_t> block;
    obs::put_varint(block, 0);
    block.push_back(type);
    block.push_back(1);
    obs::put_varint(block, b);
    for (int k = 0; k < 6; ++k) obs::put_varint(block, 0);
    for (obs::ColumnMask mask = 0; mask <= obs::kAllColumns; ++mask) {
      std::vector<TraceRecord> back;
      EXPECT_EQ(obs::decode_block(block.data(), block.size(), 1, 1, &back,
                                  mask),
                valid)
          << "type " << int{type} << " b " << b << " mask " << mask;
    }
  }
}

TEST(StoreCodec, RingEncodeMarksTruncation) {
  obs::FlightRecorder ring(4);
  std::vector<TraceRecord> recs = random_records(6, 2, 8);
  for (const TraceRecord& r : recs) ring.write(r);
  StoreShard shard;
  obs::StoreEncoder enc;
  // write() itself is unconditional (PRR_TRACE is the compile-time gate
  // at instrumentation sites), so this works with tracing on or off.
  enc.encode(ring, 2, obs::kBlockFull, &shard);
  ASSERT_EQ(shard.blocks.size(), 1u);
  EXPECT_EQ(shard.blocks[0].records, 4u);  // oldest two fell out
  EXPECT_NE(shard.blocks[0].flags & obs::kBlockTruncated, 0);
  EXPECT_NE(shard.blocks[0].flags & obs::kBlockFull, 0);
  std::vector<TraceRecord> back;
  ASSERT_TRUE(obs::decode_block(shard.bytes.data(), shard.blocks[0].bytes,
                                4, 2, &back));
  expect_records_equal({recs.begin() + 2, recs.end()}, back);
}

StoreMeta test_meta() {
  StoreMeta meta;
  meta.seed = 42;
  meta.arm = "PRR";
  meta.policy = "sample=64,full=timeout";
  meta.scenario = "chaos/everything";
  return meta;
}

// Writes a two-connection store and returns its path.
std::string write_test_store(const std::string& name,
                             std::vector<TraceRecord>* conn3,
                             std::vector<TraceRecord>* conn7) {
  *conn3 = random_records(300, 3, 31);
  *conn7 = random_records(40, 7, 71);
  StoreShard shard;
  obs::StoreEncoder enc;
  enc.encode(conn3->data(), conn3->size(), 3, obs::kBlockSampled, &shard);
  enc.encode(conn7->data(), conn7->size(), 7, obs::kBlockFull, &shard);
  const std::string path = temp_path(name);
  StoreWriter writer;
  EXPECT_TRUE(writer.open(path, test_meta()));
  EXPECT_TRUE(writer.append_shard(shard));
  EXPECT_TRUE(writer.finish());
  return path;
}

TEST(StoreFile, WriteReadRoundTrip) {
  std::vector<TraceRecord> conn3, conn7;
  const std::string path = write_test_store("roundtrip.prrstore",
                                            &conn3, &conn7);
  StoreReader reader;
  std::string err;
  ASSERT_TRUE(StoreReader::open(path, &reader, &err)) << err;
  EXPECT_TRUE(reader.meta() == test_meta());
  ASSERT_EQ(reader.blocks().size(), 2u);
  EXPECT_EQ(reader.total_records(), conn3.size() + conn7.size());
  EXPECT_EQ(reader.connections(), (std::vector<uint64_t>{3, 7}));

  std::vector<TraceRecord> back;
  ASSERT_TRUE(reader.read_connection(3, &back));
  expect_records_equal(conn3, back);
  back.clear();
  ASSERT_TRUE(reader.read_connection(7, &back));
  expect_records_equal(conn7, back);
  back.clear();
  ASSERT_TRUE(reader.read_connection(5, &back));  // absent: ok, empty
  EXPECT_TRUE(back.empty());
  std::remove(path.c_str());
}

TEST(StoreFile, RejectsTruncationAnywhere) {
  std::vector<TraceRecord> conn3, conn7;
  const std::string path = write_test_store("trunc.prrstore",
                                            &conn3, &conn7);
  const std::string body = slurp(path);
  ASSERT_GT(body.size(), 64u);
  const std::string cut = temp_path("trunc_cut.prrstore");
  // A file cut anywhere — mid-header, mid-block, mid-index, mid-footer —
  // must be rejected at open, never half-decoded.
  for (std::size_t keep = 0; keep < body.size(); keep += 97) {
    spit(cut, body.substr(0, keep));
    StoreReader reader;
    std::string err;
    EXPECT_FALSE(StoreReader::open(cut, &reader, &err)) << "keep=" << keep;
  }
  std::remove(path.c_str());
  std::remove(cut.c_str());
}

TEST(StoreFile, RejectsCorruptedDigest) {
  std::vector<TraceRecord> conn3, conn7;
  const std::string path = write_test_store("corrupt.prrstore",
                                            &conn3, &conn7);
  const std::string body = slurp(path);
  const std::string bad = temp_path("corrupt_bit.prrstore");
  sim::Mt64 rng(13);
  for (int trial = 0; trial < 32; ++trial) {
    std::string flipped = body;
    // Flip one random bit outside the end magic (magic corruption is
    // caught structurally; digest corruption is what this pins).
    const std::size_t i = rng() % (flipped.size() - 8);
    flipped[i] = static_cast<char>(flipped[i] ^ (1u << (rng() % 8)));
    spit(bad, flipped);
    StoreReader reader;
    std::string err;
    EXPECT_FALSE(StoreReader::open(bad, &reader, &err))
        << "flipped byte " << i;
  }
  std::remove(path.c_str());
  std::remove(bad.c_str());
}

// The index is only under the digest, so with --no-verify a corrupt
// record or byte count reaches the reader as is. Open must refuse any
// count the block's payload cannot hold (every record takes at least
// kMinRecordBytes) and any count past 32 bits, instead of truncating it
// or sizing a decode buffer from it.
TEST(StoreFile, RejectsImplausibleIndexCounts) {
  std::vector<TraceRecord> conn3, conn7;
  const std::string path = write_test_store("index_counts.prrstore",
                                            &conn3, &conn7);
  const std::string body = slurp(path);
  StoreReader good;
  std::string err;
  ASSERT_TRUE(StoreReader::open(path, &good, &err)) << err;
  const std::size_t index_offset = static_cast<std::size_t>(obs::get_u64le(
      reinterpret_cast<const uint8_t*>(body.data()) + body.size() -
      obs::kStoreFooterBytes));
  // Rebuilds the file with block 0's index entry replaced; the digest is
  // left stale, so only an unverified open gets past it.
  const auto patched = [&](uint64_t bytes, uint64_t records) {
    std::vector<uint8_t> index;
    obs::put_varint(index, good.blocks().size());
    uint64_t prev = 0;
    for (std::size_t i = 0; i < good.blocks().size(); ++i) {
      const StoreBlockMeta& b = good.blocks()[i];
      obs::put_varint(index, b.conn - prev);
      prev = b.conn;
      obs::put_varint(index, i == 0 ? bytes : b.bytes);
      obs::put_varint(index, i == 0 ? records : b.records);
      index.push_back(b.flags);
    }
    obs::put_u64le(index, index_offset);
    std::string out = body.substr(0, index_offset);
    out.append(index.begin(), index.end());
    out += body.substr(body.size() - 16);  // stale digest + end magic
    return out;
  };
  const StoreBlockMeta& b0 = good.blocks()[0];
  const std::string bad = temp_path("index_counts_bad.prrstore");
  // Unchanged counts reopen fine, so the rebuild itself is sound.
  spit(bad, patched(b0.bytes, b0.records));
  StoreReader reader;
  EXPECT_TRUE(StoreReader::open(bad, &reader, &err, false)) << err;
  const uint64_t most = b0.bytes / obs::kMinRecordBytes;
  for (const auto& [bytes, records] :
       std::vector<std::pair<uint64_t, uint64_t>>{
           {b0.bytes, 0},
           {b0.bytes, most + 1},
           {b0.bytes, UINT32_MAX},
           {b0.bytes, (1ull << 32) + b0.records},  // truncates to b0's
           {b0.bytes + (1ull << 32), b0.records},
       }) {
    spit(bad, patched(bytes, records));
    StoreReader r;
    err.clear();
    EXPECT_FALSE(StoreReader::open(bad, &r, &err, false))
        << "bytes " << bytes << " records " << records;
    EXPECT_FALSE(err.empty());
  }
  std::remove(path.c_str());
  std::remove(bad.c_str());
}

TEST(CapturePolicy, ParseAcceptsGrammar) {
  obs::CapturePolicy p;
  std::string err;
  EXPECT_TRUE(obs::CapturePolicy::parse("all", &p, &err));
  EXPECT_TRUE(p.keeps_anything());
  EXPECT_TRUE(obs::CapturePolicy::parse("none", &p, &err));
  EXPECT_FALSE(p.keeps_anything());
  // An RTO in Recovery alone (on an unsampled id) is kept only when the
  // policy names the rto_interrupt trigger.
  obs::CaptureStats rto_in_recovery;
  while (obs::capture_sampled(rto_in_recovery.conn, 64)) {
    ++rto_in_recovery.conn;
  }
  rto_in_recovery.rto_interrupted_recovery = true;
  EXPECT_TRUE(obs::CapturePolicy::parse("sample=64,full=timeout", &p, &err));
  EXPECT_TRUE(p.keeps_anything());
  EXPECT_FALSE(p.evaluate(rto_in_recovery).keep);
  EXPECT_TRUE(obs::CapturePolicy::parse(
      "full=timeout|rto_interrupt|undo|invariant|abort", &p, &err));
  EXPECT_TRUE(p.evaluate(rto_in_recovery).keep);
  EXPECT_TRUE(p.evaluate(rto_in_recovery).full);
  EXPECT_TRUE(obs::CapturePolicy::parse("recovery_ms>=12.5,retx>=3", &p,
                                        &err));
  EXPECT_TRUE(p.keeps_anything());
}

TEST(CapturePolicy, ParseRejectsGarbage) {
  obs::CapturePolicy p;
  std::string err;
  for (const char* bad :
       {"", "sample=0", "sample=", "sample=x", "full=", "full=bogus",
        "recovery_ms>=", "recovery_ms>=-1", "recovery_ms>=nan",
        "recovery_ms>=inf", "retx>=x", "wat", "all;none"}) {
    err.clear();
    EXPECT_FALSE(obs::CapturePolicy::parse(bad, &p, &err)) << bad;
    EXPECT_FALSE(err.empty()) << bad;
  }
}

TEST(CapturePolicy, MutatedSpecsParseStablyOrFailCleanly) {
  const std::string seeds[] = {
      "sample=64,full=timeout",
      "full=timeout|rto_interrupt|undo|invariant|abort,recovery_ms>=12.5",
      "retx>=3, all, none",
  };
  // A grid of teardown stats that separates every clause.
  std::vector<obs::CaptureStats> grid;
  for (uint64_t conn = 0; conn < 16; ++conn) {
    obs::CaptureStats s;
    s.conn = conn * 7919;
    s.timeouts = conn & 1;
    s.undo_events = (conn >> 1) & 1;
    s.retransmits = conn;
    s.invariant_violations = (conn >> 2) & 1;
    s.rto_interrupted_recovery = (conn >> 3) & 1;
    s.aborted = conn == 5;
    s.recovery_ms = 1.5 * static_cast<double>(conn * conn);
    grid.push_back(s);
  }
  sim::Mt64 rng(20110501);
  int parsed = 0, rejected = 0;
  for (int trial = 0; trial < 20000; ++trial) {
    const std::string spec =
        fuzz::mutate_text(seeds[trial % 3], "0123456789-.enaf,|=> ", rng);
    obs::CapturePolicy p;
    std::string err;
    if (!obs::CapturePolicy::parse(spec, &p, &err)) {
      EXPECT_FALSE(err.empty()) << spec;
      ++rejected;
      continue;
    }
    ++parsed;
    obs::CapturePolicy again;
    ASSERT_TRUE(obs::CapturePolicy::parse(p.spec(), &again, &err)) << err;
    ASSERT_EQ(again.spec(), p.spec());
    EXPECT_EQ(again.keeps_anything(), p.keeps_anything()) << spec;
    for (const obs::CaptureStats& s : grid) {
      const obs::CaptureDecision a = p.evaluate(s);
      const obs::CaptureDecision b = again.evaluate(s);
      EXPECT_EQ(a.keep, b.keep) << spec;
      EXPECT_EQ(a.full, b.full) << spec;
    }
  }
  // Nearly every byte of a spec is grammar, so most mutants are
  // rejected; enough must still parse to exercise the round trip.
  EXPECT_GT(parsed, 250);
  EXPECT_GT(rejected, 10000);
}

TEST(CapturePolicy, TriggersWinOverSampling) {
  obs::CapturePolicy p;
  std::string err;
  ASSERT_TRUE(obs::CapturePolicy::parse("sample=64,full=timeout", &p, &err));
  obs::CaptureStats s;
  s.conn = 12345;
  s.timeouts = 1;
  obs::CaptureDecision d = p.evaluate(s);
  EXPECT_TRUE(d.keep);
  EXPECT_TRUE(d.full);
  s.timeouts = 0;
  d = p.evaluate(s);
  EXPECT_EQ(d.keep, obs::capture_sampled(12345, 64));
  if (d.keep) {
    EXPECT_FALSE(d.full);
  }
}

TEST(CapturePolicy, SampleRateIsRoughlyOneInN) {
  int kept = 0;
  for (uint64_t id = 0; id < 64000; ++id) {
    if (obs::capture_sampled(id, 64)) ++kept;
  }
  EXPECT_GT(kept, 700);   // ~1000 expected
  EXPECT_LT(kept, 1300);
  for (uint64_t id = 0; id < 100; ++id) {
    EXPECT_TRUE(obs::capture_sampled(id, 1));
  }
  EXPECT_FALSE(obs::capture_sampled(7, 0));
}

TEST(CriticalPath, SyntheticAttribution) {
  using sim::Time;
  const uint32_t conn = 5;
  std::vector<TraceRecord> recs;
  // enter: mss=1000 (b), f={flight, ssthresh, pipe, prior_cwnd, rp}
  recs.push_back(obs::make_record(Time::milliseconds(0), conn,
                                  TraceType::kEnterRecovery, 0, 1000,
                                  10000, 5000, 8000, 10000, 20000));
  // 1ms gap with pipe(8000) >= cwnd-proxy(5000): send-window limited.
  recs.push_back(obs::make_record(Time::milliseconds(1), conn,
                                  TraceType::kAck, 0, 0,
                                  1000, 5000, 3000, 5000, 1000, 9000));
  // 1ms gap, headroom 2000 >= mss, nothing just sent: app limited.
  recs.push_back(obs::make_record(Time::milliseconds(2), conn,
                                  TraceType::kTransmit, 1, 0,
                                  9000, 1000, 5000, 10000));
  // 1ms gap following a transmit: waiting for the ACK.
  recs.push_back(obs::make_record(Time::milliseconds(3), conn,
                                  TraceType::kAck, 0, 0,
                                  2000, 5000, 3000, 5000, 1000, 10000));
  // 2ms gap ending in an RTO: rto_wait; the RTO also ends the episode.
  recs.push_back(obs::make_record(Time::milliseconds(5), conn,
                                  TraceType::kRtoFired, 0, 0,
                                  2000, 10000, 5000, 0, 200000000, 0));
  // Post-episode gap must not be attributed.
  recs.push_back(obs::make_record(Time::milliseconds(50), conn,
                                  TraceType::kAck, 0, 0,
                                  3000, 5000, 0, 5000, 1000, 10000));

  const obs::CriticalPathReport rep =
      obs::attribute_critical_path(recs.data(), recs.size());
  EXPECT_EQ(rep.conn, conn);
  EXPECT_EQ(rep.episodes, 1u);
  EXPECT_EQ(rep.send_window_ns, Time::milliseconds(1).ns());
  EXPECT_EQ(rep.app_limited_ns, Time::milliseconds(1).ns());
  EXPECT_EQ(rep.waiting_for_ack_ns, Time::milliseconds(1).ns());
  EXPECT_EQ(rep.rto_wait_ns, Time::milliseconds(2).ns());
  EXPECT_EQ(rep.total_ns, Time::milliseconds(5).ns());
  EXPECT_EQ(rep.total_ns,
            rep.send_window_ns + rep.app_limited_ns +
                rep.waiting_for_ack_ns + rep.rto_wait_ns);
}

// --- live differentials ----------------------------------------------

exp::RunOptions store_opts(const std::string& store_name) {
  exp::RunOptions opts;
  opts.connections = 120;
  opts.seed = 20110501;
  opts.threads = 1;
  opts.trace_ring_records = 1u << 16;  // no wrap for these short conns
  opts.store_path = temp_path(store_name);
  opts.capture = "all";
  return opts;
}

TEST(StoreLive, RecordsMatchTraceConnection) {
  workload::WebWorkload pop;
  const exp::ArmConfig arm = exp::ArmConfig::prr_arm();
  exp::RunOptions opts = store_opts("live_diff.prrstore");
  exp::run_arm(pop, arm, opts);

  const std::string path =
      obs::store_path_for_arm(opts.store_path, arm.name);
  StoreReader reader;
  std::string err;
  ASSERT_TRUE(StoreReader::open(path, &reader, &err)) << err;
  EXPECT_EQ(reader.meta().seed, opts.seed);
  EXPECT_EQ(reader.meta().arm, arm.name);
  EXPECT_EQ(reader.meta().policy, "all");
  const auto conns = reader.connections();
  ASSERT_EQ(conns.size(), 120u);  // capture=all keeps every connection

  // Spot-check several connections against the live listener capture.
  for (uint64_t id : {conns[0], conns[17], conns[63], conns.back()}) {
    std::vector<TraceRecord> stored;
    ASSERT_TRUE(reader.read_connection(id, &stored));
    const exp::TracedConnection live =
        exp::trace_connection(pop, arm, opts, id);
    expect_records_equal(live.records, stored);
  }
  std::remove(path.c_str());
}

// The store-vs-live differentials below run on 120 plain web
// connections and on the chaos input (chaos_store_input.h), whose
// episodes end in every way a sender can leave recovery.
struct LiveInput {
  const char* name;
  const workload::Population& pop;
  exp::RunOptions opts;
  bool every_exit;  // episodes end by completion, undo and RTO
};

std::vector<LiveInput> live_inputs(const std::string& store_name) {
  static const workload::WebWorkload web;
  exp::RunOptions chaos = chaos_store::options();
  chaos.store_path = temp_path("chaos_" + store_name);
  return {{"web", web, store_opts(store_name), false},
          {"chaos", chaos_store::population(), chaos, true}};
}

TEST(StoreLive, EpisodesFromStoreReconcile) {
  const exp::ArmConfig arm = exp::ArmConfig::prr_arm();
  for (LiveInput& in : live_inputs("episodes.prrstore")) {
    SCOPED_TRACE(in.name);
    in.opts.collect_episodes = true;
    const exp::ArmResult live = exp::run_arm(in.pop, arm, in.opts);
    EXPECT_EQ(live.invariant_violations, 0u);

    const std::string path =
        obs::store_path_for_arm(in.opts.store_path, arm.name);
    StoreReader reader;
    std::string err;
    ASSERT_TRUE(StoreReader::open(path, &reader, &err)) << err;
    // Exact reconciliation needs whole streams: no ring may have wrapped.
    for (const StoreBlockMeta& b : reader.blocks()) {
      EXPECT_EQ(b.flags & obs::kBlockTruncated, 0) << "conn " << b.conn;
    }
    obs::EpisodeTable from_store;
    ASSERT_TRUE(obs::episodes_from_store(reader, obs::QueryFilter{},
                                         &from_store, &err))
        << err;
    // Field-exact reconciliation: same table JSON, every stream counter
    // equal to its tcp::Metrics field, and every closed episode the
    // sender's RecoveryLog entry, field for field and in order.
    EXPECT_EQ(from_store.to_json(), live.episodes.to_json());
    const obs::EpisodeBuilder::StreamCounts& s = from_store.stream();
    const tcp::Metrics& m = live.metrics;
    EXPECT_EQ(s.data_segments_sent, m.data_segments_sent);
    EXPECT_EQ(s.retransmits_total, m.retransmits_total);
    EXPECT_EQ(s.fast_retransmits, m.fast_retransmits);
    EXPECT_EQ(s.dsacks_received, m.dsacks_received);
    EXPECT_EQ(s.undo_events, m.undo_events);
    EXPECT_EQ(s.lost_retransmits_detected, m.lost_retransmits_detected);
    EXPECT_EQ(s.lost_fast_retransmits, m.lost_fast_retransmits);
    EXPECT_EQ(s.timeouts_total, m.timeouts_total);
    EXPECT_EQ(from_store.total(), m.fast_recovery_events);
    EXPECT_EQ(from_store.finished_log().events(),
              live.recovery_log.events());

    if (in.every_exit) {
      // The input must keep covering every way an episode can end.
      int exits[4] = {};
      for (const obs::EpisodeSummary& row : from_store.rows()) {
        ++exits[static_cast<int>(row.exit)];
      }
      for (obs::EpisodeExit e :
           {obs::EpisodeExit::kCompleted, obs::EpisodeExit::kUndo,
            obs::EpisodeExit::kRtoInterrupted}) {
        EXPECT_GT(exits[static_cast<int>(e)], 0)
            << "no episode exits by " << obs::to_string(e);
      }
    }
    std::remove(path.c_str());
  }
}

TEST(StoreLive, MergeOfRangeShardsIsByteIdentical) {
  const exp::ArmConfig arm = exp::ArmConfig::prr_arm();
  std::vector<LiveInput> inputs = live_inputs("full.prrstore");
  inputs[0].opts.capture = "sample=4,full=timeout";
  for (LiveInput& in : inputs) {
    SCOPED_TRACE(in.name);
    const exp::RunOptions& opts = in.opts;
    exp::run_arm(in.pop, arm, opts);
    const std::string full_path =
        obs::store_path_for_arm(opts.store_path, arm.name);

    // Same population as two disjoint, off-center id ranges (the
    // fork-per-shard protocol), merged by connection id.
    const int split = opts.connections / 2 - 10;
    exp::RunOptions lo = opts;
    lo.connections = split;
    lo.store_path = temp_path("lo.prrstore");
    exp::RunOptions hi = opts;
    hi.first_connection = split;
    hi.connections = opts.connections - split;
    hi.store_path = temp_path("hi.prrstore");
    exp::run_arm(in.pop, arm, lo);
    exp::run_arm(in.pop, arm, hi);

    const std::string merged = temp_path("merged.prrstore");
    std::string err;
    ASSERT_TRUE(obs::merge_store_files(
        {obs::store_path_for_arm(lo.store_path, arm.name),
         obs::store_path_for_arm(hi.store_path, arm.name)},
        merged, &err))
        << err;
    EXPECT_TRUE(slurp(merged) == slurp(full_path));  // binary: no dump

    // Meta mismatch (different seed) must be refused.
    exp::RunOptions other = lo;
    other.seed = 1;
    other.store_path = temp_path("other.prrstore");
    exp::run_arm(in.pop, arm, other);
    EXPECT_FALSE(obs::merge_store_files(
        {obs::store_path_for_arm(lo.store_path, arm.name),
         obs::store_path_for_arm(other.store_path, arm.name)},
        temp_path("bad_merge.prrstore"), &err));

    for (const std::string& p :
         {full_path, obs::store_path_for_arm(lo.store_path, arm.name),
          obs::store_path_for_arm(hi.store_path, arm.name),
          obs::store_path_for_arm(other.store_path, arm.name), merged}) {
      std::remove(p.c_str());
    }
  }
}

TEST(StoreLive, AggregateAndSeriesQueries) {
  const exp::ArmConfig arm = exp::ArmConfig::prr_arm();
  for (LiveInput& in : live_inputs("query.prrstore")) {
    SCOPED_TRACE(in.name);
    const exp::ArmResult live = exp::run_arm(in.pop, arm, in.opts);

    const std::string path =
        obs::store_path_for_arm(in.opts.store_path, arm.name);
    StoreReader reader;
    std::string err;
    ASSERT_TRUE(StoreReader::open(path, &reader, &err)) << err;

    // Records grouped by type cover every record, and the per-type
    // counts equal the arm's counters of the same facts: one
    // kEnterRecovery per fast-recovery event, one kRtoFired per timeout,
    // one kTransmit per data segment.
    obs::AggregateQuery q;
    q.group = obs::GroupKey::kType;
    obs::AggregateResult agg;
    ASSERT_TRUE(obs::run_aggregate(reader, q, &agg, &err)) << err;
    uint64_t total = 0;
    uint64_t by_type[static_cast<int>(TraceType::kCount)] = {};
    for (const auto& row : agg.rows) {
      total += row.count;
      by_type[row.key] = row.count;
    }
    EXPECT_EQ(total, reader.total_records());
    EXPECT_EQ(by_type[static_cast<int>(TraceType::kEnterRecovery)],
              live.metrics.fast_recovery_events);
    EXPECT_EQ(by_type[static_cast<int>(TraceType::kRtoFired)],
              live.metrics.timeouts_total);
    EXPECT_EQ(by_type[static_cast<int>(TraceType::kTransmit)],
              live.metrics.data_segments_sent);
    EXPECT_GT(by_type[static_cast<int>(TraceType::kEnterRecovery)], 0u);

    // A cwnd time-series from kAck records of the first connection.
    obs::QueryField cwnd_field;
    ASSERT_TRUE(
        obs::parse_field(TraceType::kAck, "cwnd", &cwnd_field, &err));
    std::vector<obs::SeriesPoint> series;
    ASSERT_TRUE(obs::extract_series(reader, reader.connections()[0],
                                    TraceType::kAck, cwnd_field, &series,
                                    &err));
    ASSERT_FALSE(series.empty());
    int64_t prev = series[0].at_ns;
    for (const auto& pt : series) {
      EXPECT_GE(pt.at_ns, prev);  // stream order
      prev = pt.at_ns;
      EXPECT_GT(pt.value, 0u);  // cwnd is never zero
    }

    // Critical-path buckets must sum exactly to total recovery time.
    obs::CriticalPathReport sum;
    for (uint64_t conn : reader.connections()) {
      obs::CriticalPathReport rep;
      ASSERT_TRUE(obs::critical_path(reader, conn, &rep, &err)) << err;
      EXPECT_EQ(rep.total_ns,
                rep.waiting_for_ack_ns + rep.rto_wait_ns +
                    rep.app_limited_ns + rep.send_window_ns);
      sum.merge(rep);
    }
    EXPECT_EQ(sum.episodes, live.metrics.fast_recovery_events);
    std::remove(path.c_str());
  }
}

// A triggered policy selects connections and never mutates them: every
// connection a "sample=8,full=timeout" store keeps is record for record
// the capture=all store's, and every 1-in-8 sampled id is kept
// (triggers only add connections).
TEST(StoreLive, SampledStoreIsRecordIdenticalSubsetOfCaptureAll) {
  const exp::ArmConfig arm = exp::ArmConfig::prr_arm();
  exp::RunOptions all = chaos_store::options();
  all.store_path = temp_path("subset_all.prrstore");
  exp::RunOptions sampled = all;
  sampled.capture = "sample=8,full=timeout";
  sampled.store_path = temp_path("subset_sampled.prrstore");
  exp::run_arm(chaos_store::population(), arm, all);
  exp::run_arm(chaos_store::population(), arm, sampled);

  const std::string all_path =
      obs::store_path_for_arm(all.store_path, arm.name);
  const std::string sampled_path =
      obs::store_path_for_arm(sampled.store_path, arm.name);
  StoreReader full;
  StoreReader samp;
  std::string err;
  ASSERT_TRUE(StoreReader::open(all_path, &full, &err)) << err;
  ASSERT_TRUE(StoreReader::open(sampled_path, &samp, &err)) << err;
  EXPECT_EQ(samp.meta().policy, "sample=8,full=timeout");
  EXPECT_LT(samp.connections().size(), full.connections().size());

  bool saw_sampled_block = false;
  for (const StoreBlockMeta& b : samp.blocks()) {
    saw_sampled_block |= (b.flags & obs::kBlockSampled) != 0;
  }
  EXPECT_TRUE(saw_sampled_block);
  for (uint64_t conn : samp.connections()) {
    SCOPED_TRACE(conn);
    std::vector<TraceRecord> kept;
    std::vector<TraceRecord> whole;
    ASSERT_TRUE(samp.read_connection(conn, &kept));
    ASSERT_TRUE(full.read_connection(conn, &whole));
    expect_records_equal(whole, kept);
  }
  for (uint64_t id = 0; id < static_cast<uint64_t>(all.connections); ++id) {
    if (!obs::capture_sampled(id, 8)) continue;
    std::vector<TraceRecord> recs;
    EXPECT_TRUE(samp.read_connection(id, &recs) && !recs.empty())
        << "sampled conn " << id << " missing";
  }
  std::remove(all_path.c_str());
  std::remove(sampled_path.c_str());
}

// The rto_interrupt trigger keeps exactly the connections whose sender
// took an RTO in Recovery, even when the ring wrapped and lost the
// episode's kEnterRecovery record. The live episode table (fed as
// records are written, so wrap cannot hide anything) is the reference.
TEST(StoreLive, RtoInterruptTriggerSurvivesRingWrap) {
  const exp::ArmConfig arm = exp::ArmConfig::prr_arm();
  exp::RunOptions opts = chaos_store::options();
  opts.connections = 400;
  opts.trace_ring_records = 64;
  opts.collect_episodes = true;
  opts.capture = "full=rto_interrupt";
  opts.store_path = temp_path("rto_interrupt.prrstore");
  const exp::ArmResult live =
      exp::run_arm(chaos_store::population(), arm, opts);

  std::vector<uint64_t> expected;
  for (const obs::EpisodeSummary& row : live.episodes.rows()) {
    if (row.exit == obs::EpisodeExit::kRtoInterrupted &&
        (expected.empty() || expected.back() != row.conn)) {
      expected.push_back(row.conn);
    }
  }
  ASSERT_FALSE(expected.empty());

  const std::string path = obs::store_path_for_arm(opts.store_path, arm.name);
  StoreReader reader;
  std::string err;
  ASSERT_TRUE(StoreReader::open(path, &reader, &err)) << err;
  EXPECT_EQ(reader.connections(), expected);
  uint64_t wrapped = 0;
  for (const StoreBlockMeta& b : reader.blocks()) {
    if (b.flags & obs::kBlockTruncated) ++wrapped;
  }
  EXPECT_GT(wrapped, 0u) << "the ring must wrap for this test to bite";
  std::remove(path.c_str());
}

TEST(StoreLive, BadCaptureSpecThrowsBeforeRunning) {
  workload::WebWorkload pop;
  exp::RunOptions opts = store_opts("never_written.prrstore");
  opts.capture = "sample=zero";
  EXPECT_THROW(exp::run_arm(pop, exp::ArmConfig::prr_arm(), opts),
               std::invalid_argument);
}

}  // namespace
}  // namespace prr
