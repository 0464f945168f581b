// Column-projected store queries. Each query in obs/query.cc decodes only
// the columns it reads; these tests hold it to the full-decode reference
// in store_query_oracle.h on the web and chaos inputs, check the column
// plan EpisodeBuilder::columns_read states, and fuzz the reader and every
// query with seeded byte mutations of a small chaos capture.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "chaos_store_input.h"
#include "exp/experiment.h"
#include "obs/episodes.h"
#include "obs/query.h"
#include "obs/store/store_format.h"
#include "obs/store/store_reader.h"
#include "sim/rng.h"
#include "store_query_oracle.h"
#include "workload/web_workload.h"

namespace prr {
namespace {

using obs::ColumnMask;
using obs::StoreReader;
using obs::TraceRecord;
using obs::TraceType;

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "prr_query_test_" + name;
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

// Runs the PRR arm of `pop` into a store and returns the store's path.
std::string write_store(const workload::Population& pop,
                        exp::RunOptions opts, const std::string& name) {
  const exp::ArmConfig arm = exp::ArmConfig::prr_arm();
  opts.store_path = temp_path(name);
  exp::run_arm(pop, arm, opts);
  return obs::store_path_for_arm(opts.store_path, arm.name);
}

// The two inputs of the differential, plain web traffic and the chaos
// input whose episodes end in every way a sender can leave recovery,
// written under names unique to the calling test: ctest runs each test
// in a process of its own, several at once.
struct Input {
  const char* name;
  std::string path;
};

struct Inputs {
  std::vector<Input> stores;

  explicit Inputs(const std::string& tag) {
    static const workload::WebWorkload web;
    exp::RunOptions web_opts;
    web_opts.connections = 300;
    web_opts.seed = 20110501;
    web_opts.threads = 1;
    web_opts.trace_ring_records = 1u << 16;
    web_opts.capture = "all";
    stores = {{"web", write_store(web, web_opts, tag + "_web.prrstore")},
              {"chaos", write_store(chaos_store::population(),
                                    chaos_store::options(),
                                    tag + "_chaos.prrstore")}};
  }
  ~Inputs() {
    for (const Input& in : stores) std::remove(in.path.c_str());
  }
};

void expect_same(const obs::AggregateResult& want,
                 const obs::AggregateResult& got) {
  EXPECT_EQ(got.group, want.group);
  EXPECT_EQ(got.bucket_ns, want.bucket_ns);
  ASSERT_EQ(got.rows.size(), want.rows.size());
  for (std::size_t i = 0; i < want.rows.size(); ++i) {
    EXPECT_EQ(got.rows[i].key, want.rows[i].key) << "row " << i;
    EXPECT_EQ(got.rows[i].count, want.rows[i].count) << "row " << i;
    EXPECT_EQ(got.rows[i].sum, want.rows[i].sum) << "row " << i;
    EXPECT_EQ(got.rows[i].min, want.rows[i].min) << "row " << i;
    EXPECT_EQ(got.rows[i].max, want.rows[i].max) << "row " << i;
  }
}

void expect_same(const obs::EpisodeTable& want,
                 const obs::EpisodeTable& got) {
  EXPECT_EQ(got.to_json(), want.to_json());
  EXPECT_TRUE(got.stream() == want.stream());
  ASSERT_EQ(got.rows().size(), want.rows().size());
  for (std::size_t i = 0; i < want.rows().size(); ++i) {
    EXPECT_TRUE(got.rows()[i] == want.rows()[i]) << "row " << i;
  }
}

constexpr obs::QueryField kFields[] = {
    obs::QueryField::kAtNs, obs::QueryField::kA,  obs::QueryField::kB,
    obs::QueryField::kF0,   obs::QueryField::kF1, obs::QueryField::kF2,
    obs::QueryField::kF3,   obs::QueryField::kF4, obs::QueryField::kF5,
};
constexpr obs::GroupKey kGroups[] = {
    obs::GroupKey::kNone,
    obs::GroupKey::kConn,
    obs::GroupKey::kType,
    obs::GroupKey::kTimeBucket,
};

TEST(StoreQueryOracle, AggregateMatchesFullDecode) {
  const Inputs inputs("agg");
  for (const Input& in : inputs.stores) {
    SCOPED_TRACE(in.name);
    StoreReader reader;
    std::string err;
    ASSERT_TRUE(StoreReader::open(in.path, &reader, &err)) << err;
    // The time filter off, then on with a lower bound, an upper bound or
    // both, in turn over the field and group pairs.
    int bounds = 0;
    for (obs::QueryField field : kFields) {
      for (obs::GroupKey group : kGroups) {
        for (bool timed : {false, true}) {
          SCOPED_TRACE(testing::Message()
                       << "field " << static_cast<int>(field) << " group "
                       << static_cast<int>(group) << " timed " << timed);
          obs::AggregateQuery q;
          q.field = field;
          q.group = group;
          q.bucket_ns = 250'000'000;
          if (timed) {
            ++bounds;
            if (bounds % 3 != 2) q.filter.t_min_ns = 100'000'000;
            if (bounds % 3 != 1) q.filter.t_max_ns = 1'500'000'000;
          }
          obs::AggregateResult want, got;
          ASSERT_TRUE(oracle::run_aggregate(reader, q, &want));
          ASSERT_TRUE(obs::run_aggregate(reader, q, &got, &err)) << err;
          ASSERT_FALSE(want.rows.empty());
          expect_same(want, got);
        }
      }
    }
    // Record-type, conn-range and provenance clauses ride along.
    obs::AggregateQuery q;
    q.filter.set_only_type(TraceType::kAck);
    q.filter.conn_min = 10;
    q.filter.conn_max = 200;
    q.group = obs::GroupKey::kConn;
    q.field = obs::QueryField::kF1;
    obs::AggregateResult want, got;
    ASSERT_TRUE(oracle::run_aggregate(reader, q, &want));
    ASSERT_TRUE(obs::run_aggregate(reader, q, &got, &err)) << err;
    expect_same(want, got);
  }
}

TEST(StoreQueryOracle, EpisodesSeriesAndCriticalPathMatchFullDecode) {
  const Inputs inputs("episodes");
  for (const Input& in : inputs.stores) {
    SCOPED_TRACE(in.name);
    StoreReader reader;
    std::string err;
    ASSERT_TRUE(StoreReader::open(in.path, &reader, &err)) << err;
    obs::QueryFilter some;
    some.conn_min = 40;
    some.conn_max = 150;
    for (const obs::QueryFilter& filter : {obs::QueryFilter{}, some}) {
      obs::EpisodeTable want, got;
      ASSERT_TRUE(oracle::episodes_from_store(reader, filter, &want));
      ASSERT_TRUE(obs::episodes_from_store(reader, filter, &got, &err))
          << err;
      EXPECT_GT(want.total(), 0u);
      expect_same(want, got);
    }

    constexpr TraceType kTypes[] = {TraceType::kAck, TraceType::kTransmit,
                                    TraceType::kEnterRecovery,
                                    TraceType::kPrr};
    std::size_t field = 0;
    for (uint64_t conn : reader.connections()) {
      SCOPED_TRACE(conn);
      // Every field against every type, spread over the connections.
      const obs::QueryField f = kFields[field % std::size(kFields)];
      const TraceType type = kTypes[field / std::size(kFields) %
                                    std::size(kTypes)];
      ++field;
      std::vector<obs::SeriesPoint> want_series, got_series;
      ASSERT_TRUE(oracle::extract_series(reader, conn, type, f,
                                         &want_series));
      ASSERT_TRUE(obs::extract_series(reader, conn, type, f, &got_series,
                                      &err))
          << err;
      ASSERT_EQ(got_series.size(), want_series.size());
      for (std::size_t i = 0; i < want_series.size(); ++i) {
        EXPECT_EQ(got_series[i].at_ns, want_series[i].at_ns);
        EXPECT_EQ(got_series[i].value, want_series[i].value);
      }

      obs::CriticalPathReport want_path, got_path;
      ASSERT_TRUE(oracle::critical_path(reader, conn, &want_path));
      ASSERT_TRUE(obs::critical_path(reader, conn, &got_path, &err)) << err;
      EXPECT_EQ(got_path.to_json(), want_path.to_json());
    }
  }
}

// Feeds `records` to a fresh builder as they are and with every column
// outside columns_read() zeroed; the two must derive the same episodes
// (ledgers included) and stream counters.
void expect_columns_read_suffices(std::vector<TraceRecord> records) {
  uint32_t types = 0;
  for (const TraceRecord& r : records) {
    types |= 1u << static_cast<uint32_t>(r.type);
  }
  const ColumnMask columns = obs::EpisodeBuilder::columns_read(types);
  ASSERT_NE(columns & obs::kColumnType, 0u);
  std::vector<TraceRecord> zeroed = records;
  for (TraceRecord& r : zeroed) {
    if ((columns & obs::kColumnAt) == 0) r.at_ns = 0;
    if ((columns & obs::kColumnA) == 0) r.a = 0;
    if ((columns & obs::kColumnB) == 0) r.b = 0;
    for (int k = 0; k < 6; ++k) {
      if ((columns & (obs::kColumnF0 << k)) == 0) r.f[k] = 0;
    }
  }
  for (bool ledgers : {false, true}) {
    obs::EpisodeBuilder full(obs::EpisodeBuilder::Options{ledgers});
    obs::EpisodeBuilder projected(obs::EpisodeBuilder::Options{ledgers});
    for (const TraceRecord& r : records) full.on_record(r);
    for (const TraceRecord& r : zeroed) projected.on_record(r);
    full.finish();
    projected.finish();
    EXPECT_TRUE(projected.episodes() == full.episodes());
    EXPECT_TRUE(projected.stream() == full.stream());
  }
}

TEST(EpisodeColumns, SyntheticStreams) {
  sim::Mt64 rng(23);
  const uint32_t kinds = static_cast<uint32_t>(TraceType::kCount);
  for (int trial = 0; trial < 400; ++trial) {
    SCOPED_TRACE(trial);
    // Most streams draw from a random subset of types without
    // kEnterRecovery, so they read like a ring that lost its head: acks
    // in the recovery state, exits and undos with no episode open.
    uint32_t allowed = static_cast<uint32_t>(rng()) & ((1u << kinds) - 1);
    if (trial % 4 != 0) {
      allowed &= ~(1u << static_cast<uint32_t>(TraceType::kEnterRecovery));
    }
    if (allowed == 0) allowed = 1u << static_cast<uint32_t>(TraceType::kAck);
    std::vector<TraceRecord> records;
    int64_t t = 0;
    while (records.size() < 120) {
      const uint32_t type = static_cast<uint32_t>(rng() % kinds);
      if ((allowed >> type & 1u) == 0) continue;
      TraceRecord r;
      t += static_cast<int64_t>(rng() % 5'000'000);
      r.at_ns = t;
      r.conn = 9;
      r.type = static_cast<TraceType>(type);
      r.a = static_cast<uint8_t>(rng() % 4);  // 2 = the recovery state
      r.b = static_cast<uint16_t>(rng() % 3 == 0 ? 1460 : rng() % 4);
      for (uint64_t& f : r.f) f = rng() % 100'000;
      records.push_back(r);
    }
    expect_columns_read_suffices(std::move(records));
  }
}

// Real streams with their head cut at a random point, as a wrapped ring
// keeps them: often mid-episode, with no kEnterRecovery left.
TEST(EpisodeColumns, RingTruncatedHeadsOfRealStreams) {
  const std::string path = write_store(
      chaos_store::population(), chaos_store::options(), "heads.prrstore");
  StoreReader reader;
  std::string err;
  ASSERT_TRUE(StoreReader::open(path, &reader, &err)) << err;
  std::remove(path.c_str());
  sim::Mt64 rng(29);
  int cut_mid_episode = 0;
  for (uint64_t conn : reader.connections()) {
    std::vector<TraceRecord> records;
    ASSERT_TRUE(reader.read_connection(conn, &records));
    bool entered = false;
    for (const TraceRecord& r : records) {
      entered |= r.type == TraceType::kEnterRecovery;
    }
    if (!entered) continue;
    SCOPED_TRACE(conn);
    expect_columns_read_suffices(records);
    for (int cut = 0; cut < 3; ++cut) {
      const std::size_t drop = rng() % records.size();
      std::vector<TraceRecord> tail(records.begin() + drop, records.end());
      obs::EpisodeBuilder probe;
      for (std::size_t k = 0; k < drop; ++k) probe.on_record(records[k]);
      cut_mid_episode += probe.in_episode();
      expect_columns_read_suffices(std::move(tail));
    }
  }
  EXPECT_GT(cut_mid_episode, 10);
}

// Mutates 1-4 consecutive bytes of `body` (each to a different value),
// half the time anywhere and half the time in the index and footer, the
// part no block payload check covers. Returns the first mutated offset.
std::size_t mutate(std::string* body, std::size_t index_offset,
                   sim::Mt64& rng) {
  const std::size_t run = 1 + rng() % 4;
  const std::size_t from = rng() % 2 == 0 ? 0 : index_offset;
  const std::size_t at = from + rng() % (body->size() - from - run + 1);
  for (std::size_t k = 0; k < run; ++k) {
    (*body)[at + k] = static_cast<char>((*body)[at + k] ^ (1 + rng() % 255));
  }
  return at;
}

// Block i decodes under every mask the queries use, and under each column
// alone, exactly when it decodes whole; block_types agrees with it.
void expect_block_parity(const StoreReader& reader, std::size_t i) {
  std::vector<TraceRecord> full;
  const bool ok = reader.read_block(i, &full);
  uint32_t types = 0;
  const bool typed = reader.block_types(i, &types);
  if (ok) {
    ASSERT_TRUE(typed);
    uint32_t want = 0;
    for (const TraceRecord& r : full) {
      want |= 1u << static_cast<uint32_t>(r.type);
    }
    EXPECT_EQ(types, want);
  }
  std::vector<ColumnMask> masks = {
      obs::kColumnType, obs::EpisodeBuilder::columns_read(types),
      obs::EpisodeBuilder::columns_read(0)};
  for (int c = 0; c < 10; ++c) masks.push_back(1u << c);
  for (ColumnMask mask : masks) {
    std::vector<TraceRecord> part;
    EXPECT_EQ(reader.read_block(i, &part, mask), ok)
        << "block " << i << " mask " << mask;
  }
}

// The store queries on an unverified store answer, true or false,
// without crashing, and exactly as the full-decode reference does.
void expect_queries_match_reference(const StoreReader& reader,
                                    obs::GroupKey group, uint64_t conn) {
  std::string err;
  obs::AggregateQuery q;
  q.group = group;
  q.field = obs::QueryField::kF1;
  if (group == obs::GroupKey::kType) q.filter.t_min_ns = 1'000'000;
  obs::AggregateResult want, got;
  const bool agg_ok = oracle::run_aggregate(reader, q, &want);
  ASSERT_EQ(obs::run_aggregate(reader, q, &got, &err), agg_ok);
  if (agg_ok) expect_same(want, got);

  obs::EpisodeTable want_table, got_table;
  const bool ok =
      oracle::episodes_from_store(reader, obs::QueryFilter{}, &want_table);
  ASSERT_EQ(obs::episodes_from_store(reader, obs::QueryFilter{}, &got_table,
                                     &err),
            ok);
  if (ok) expect_same(want_table, got_table);

  std::vector<obs::SeriesPoint> want_series, got_series;
  ASSERT_EQ(obs::extract_series(reader, conn, TraceType::kAck,
                                obs::QueryField::kF1, &got_series, &err),
            oracle::extract_series(reader, conn, TraceType::kAck,
                                   obs::QueryField::kF1, &want_series));
  EXPECT_EQ(got_series.size(), want_series.size());
  obs::CriticalPathReport want_path, got_path;
  const bool path_ok = oracle::critical_path(reader, conn, &want_path);
  ASSERT_EQ(obs::critical_path(reader, conn, &got_path, &err), path_ok);
  if (path_ok) {
    EXPECT_EQ(got_path.to_json(), want_path.to_json());
  }
}

TEST(StoreFuzz, MutatedStoresFailCleanly) {
  exp::RunOptions opts = chaos_store::options();
  opts.connections = 50;
  const std::string path =
      write_store(chaos_store::population(), opts, "fuzz.prrstore");
  const std::string body = slurp(path);
  {
    StoreReader reader;
    std::string err;
    ASSERT_TRUE(StoreReader::open(path, &reader, &err)) << err;
    ASSERT_FALSE(reader.blocks().empty());
    for (std::size_t i = 0; i < reader.blocks().size(); ++i) {
      expect_block_parity(reader, i);
    }
    expect_queries_match_reference(reader, obs::GroupKey::kConn,
                                   reader.blocks()[0].conn);
  }
  std::remove(path.c_str());
  const std::size_t index_offset = static_cast<std::size_t>(obs::get_u64le(
      reinterpret_cast<const uint8_t*>(body.data()) + body.size() -
      obs::kStoreFooterBytes));
  const std::string bad = temp_path("fuzz_mutated.prrstore");
  sim::Mt64 rng(31);
  int opened_unverified = 0;
  for (int trial = 0; trial < 250; ++trial) {
    SCOPED_TRACE(trial);
    std::string mutant = body;
    const std::size_t at = mutate(&mutant, index_offset, rng);
    spit(bad, mutant);
    StoreReader verified;
    std::string err;
    EXPECT_FALSE(StoreReader::open(bad, &verified, &err));
    StoreReader reader;
    if (!StoreReader::open(bad, &reader, &err, false)) continue;
    ++opened_unverified;
    // The mutation's block (if it hit one) gets every mask; the queries
    // run over the whole store and on that block's connection.
    const auto& blocks = reader.blocks();
    if (blocks.empty()) continue;
    std::size_t hit = 0;
    while (hit + 1 < blocks.size() &&
           blocks[hit].offset + blocks[hit].bytes <= at) {
      ++hit;
    }
    expect_block_parity(reader, hit);
    expect_queries_match_reference(reader, kGroups[trial % 4],
                                   blocks[hit].conn);
    if (HasFatalFailure()) break;
  }
  // Block payloads are most of the file, and nothing but the digest
  // guards them, so many mutants must reach the queries.
  EXPECT_GT(opened_unverified, 60) << opened_unverified;
  std::remove(bad.c_str());
}

}  // namespace
}  // namespace prr
