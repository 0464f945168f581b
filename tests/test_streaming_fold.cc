// The streaming shard fold (exp/stream_fold.h + run_arm): shards are
// merged into the arm accumulator in ascending connection-id order as
// soon as their predecessor has merged, holding only a bounded reorder
// window of shards alive — and every aggregate stays byte-identical to
// the serial run at any thread count, any fold window, and in either
// stats mode.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "exp/experiment.h"
#include "exp/scenarios.h"
#include "exp/stream_fold.h"
#include "workload/web_workload.h"

namespace prr::exp {
namespace {

// --- StreamFolder unit tests ---------------------------------------------

TEST(StreamFolder, FoldsInOrderDespiteOutOfOrderSubmission) {
  std::vector<uint64_t> folded;
  StreamFolder<uint64_t, std::function<void(uint64_t&&)>> folder(
      4, /*window=*/2, [&](uint64_t&& v) { folded.push_back(v); });

  uint64_t c = 0;
  ASSERT_TRUE(folder.claim(c));
  EXPECT_EQ(c, 0u);
  ASSERT_TRUE(folder.claim(c));
  EXPECT_EQ(c, 1u);

  // Chunk 1 lands first: it parks (its predecessor has not folded).
  folder.submit(1, 101);
  EXPECT_EQ(folder.folded(), 0u);
  // Chunk 0 lands: both fold, in order.
  folder.submit(0, 100);
  EXPECT_EQ(folder.folded(), 2u);

  ASSERT_TRUE(folder.claim(c));
  EXPECT_EQ(c, 2u);
  folder.submit(2, 102);
  ASSERT_TRUE(folder.claim(c));
  EXPECT_EQ(c, 3u);
  folder.submit(3, 103);

  EXPECT_FALSE(folder.claim(c)) << "all chunks claimed";
  EXPECT_EQ(folded, (std::vector<uint64_t>{100, 101, 102, 103}));
}

TEST(StreamFolder, ClaimBlocksUntilWindowOpens) {
  // window=1: a second chunk cannot be claimed until chunk 0 folds.
  StreamFolder<int, std::function<void(int&&)>> folder(
      3, /*window=*/1, [](int&&) {});
  uint64_t c = 0;
  ASSERT_TRUE(folder.claim(c));
  ASSERT_EQ(c, 0u);

  std::atomic<bool> second_claimed{false};
  std::thread t([&] {
    uint64_t c2 = 0;
    ASSERT_TRUE(folder.claim(c2));
    EXPECT_EQ(c2, 1u);
    second_claimed.store(true);
    folder.submit(1, 1);
  });
  // The claim above must park until this submit folds chunk 0.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(second_claimed.load());
  folder.submit(0, 0);
  t.join();
  EXPECT_TRUE(second_claimed.load());
  EXPECT_EQ(folder.folded(), 2u);
}

TEST(StreamFolder, ManyWorkersBoundedPending) {
  // 8 workers race over 64 chunks with a window of 4: the fold sees every
  // chunk exactly once, in order, and never parks more than window + a
  // claimant's in-flight shard per worker.
  const uint64_t kChunks = 64, kWindow = 4;
  const int kWorkers = 8;
  std::vector<uint64_t> folded;
  StreamFolder<uint64_t, std::function<void(uint64_t&&)>> folder(
      kChunks, kWindow, [&](uint64_t&& v) { folded.push_back(v); });
  std::vector<std::thread> pool;
  for (int w = 0; w < kWorkers; ++w) {
    pool.emplace_back([&] {
      uint64_t c = 0;
      while (folder.claim(c)) folder.submit(c, uint64_t{c});
    });
  }
  for (auto& t : pool) t.join();
  ASSERT_EQ(folded.size(), kChunks);
  for (uint64_t i = 0; i < kChunks; ++i) EXPECT_EQ(folded[i], i);
  EXPECT_LE(folder.max_pending(), kWindow + kWorkers);
}

// --- streamed sweep vs serial --------------------------------------------

uint64_t digest(const ArmResult& r) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  mix(r.metrics.data_segments_sent);
  mix(r.metrics.retransmits_total);
  mix(r.metrics.fast_retransmits);
  mix(r.metrics.timeouts_total);
  mix(r.total_workload_bytes);
  mix(r.connections_run);
  mix(r.recovery_log.count());
  mix(r.latency.count());
  mix(r.latency.completed_count());
  mix(static_cast<uint64_t>(r.total_network_transmit_time.ns()));
  mix(static_cast<uint64_t>(r.total_loss_recovery_time.ns()));
  mix(r.invariant_violations);
  mix(r.quarantined.size());
  for (const auto& e : r.recovery_log.events()) {
    mix(static_cast<uint64_t>(e.start.ns()));
    mix(e.cwnd_at_exit);
    mix(e.retransmits);
  }
  for (const auto& resp : r.latency.responses()) {
    mix(resp.bytes());
    mix(static_cast<uint64_t>(resp.last_byte_acked().ns()));
  }
  return h;
}

TEST(StreamingFold, ThreadAndWindowInvariantDigests) {
  workload::WebWorkload pop;
  RunOptions opts;
  opts.connections = 200;
  opts.seed = 77;
  opts.threads = 1;
  const uint64_t serial = digest(run_arm(pop, ArmConfig::prr_arm(), opts));
  // The fold's reorder window is 2 * threads chunks.
  for (int threads : {2, 4, 8}) {
    opts.threads = threads;
    EXPECT_EQ(serial, digest(run_arm(pop, ArmConfig::prr_arm(), opts)))
        << "threads=" << threads;
  }
}

TEST(StreamingFold, TraceOnOffInvariantAcrossThreads) {
  workload::WebWorkload pop;
  RunOptions opts;
  opts.connections = 120;
  opts.seed = 31;
  opts.threads = 1;
  const uint64_t serial = digest(run_arm(pop, ArmConfig::prr_arm(), opts));
  opts.trace = true;
  opts.collect_episodes = true;
  for (int threads : {1, 4, 8}) {
    opts.threads = threads;
    EXPECT_EQ(serial, digest(run_arm(pop, ArmConfig::prr_arm(), opts)))
        << "traced, threads=" << threads;
  }
}

TEST(StreamingFold, ChaosQuarantineInvariantAcrossThreads) {
  workload::WebWorkload base;
  ChaosPopulation pop(base, ChaosSpec::everything().profile);
  RunOptions opts;
  opts.connections = 96;
  opts.seed = 7;
  opts.check_invariants = true;
  opts.inject_violation_connection = 41;
  opts.inject_violation_on_ack = 3;
  opts.threads = 1;
  const ArmResult serial = run_arm(pop, ArmConfig::prr_arm(), opts);
  ASSERT_EQ(serial.quarantined.size(), 1u);
  const uint64_t want = digest(serial);
  for (int threads : {4, 8}) {
    opts.threads = threads;
    const ArmResult par = run_arm(pop, ArmConfig::prr_arm(), opts);
    EXPECT_EQ(want, digest(par)) << "chaos, threads=" << threads;
    ASSERT_EQ(par.quarantined.size(), 1u);
    EXPECT_EQ(par.quarantined[0].connection_id,
              serial.quarantined[0].connection_id);
  }
}

// Chunk-sizing regression (ISSUE 7 satellite): n << threads*8 used to
// degenerate to one single-connection shard per connection; the ceil
// formula now caps num_chunks at threads*8 — and either way a 3-
// connection, 8-thread run must match serial byte for byte.
TEST(StreamingFold, TinyRunMatchesSerialByteForByte) {
  workload::WebWorkload pop;
  RunOptions opts;
  opts.connections = 3;
  opts.seed = 5;
  opts.threads = 1;
  const ArmResult serial = run_arm(pop, ArmConfig::prr_arm(), opts);
  opts.threads = 8;
  const ArmResult par = run_arm(pop, ArmConfig::prr_arm(), opts);
  static_assert(std::is_trivially_copyable_v<tcp::Metrics>);
  EXPECT_EQ(
      std::memcmp(&serial.metrics, &par.metrics, sizeof(tcp::Metrics)), 0);
  EXPECT_EQ(digest(serial), digest(par));
  EXPECT_EQ(par.connections_run, 3u);
  ASSERT_EQ(serial.latency.responses().size(),
            par.latency.responses().size());
}

// Bounded stats keep every counter and fraction bit-identical to the
// unbounded run; only the raw sample vectors are dropped.
TEST(StreamingFold, BoundedStatsMatchUnboundedCounters) {
  workload::WebWorkload pop;
  RunOptions opts;
  opts.connections = 150;
  opts.seed = 42;
  opts.threads = 4;
  const ArmResult full = run_arm(pop, ArmConfig::prr_arm(), opts);
  opts.bounded_stats = true;
  const ArmResult bounded = run_arm(pop, ArmConfig::prr_arm(), opts);

  static_assert(std::is_trivially_copyable_v<tcp::Metrics>);
  EXPECT_EQ(
      std::memcmp(&full.metrics, &bounded.metrics, sizeof(tcp::Metrics)),
      0);
  EXPECT_EQ(full.total_workload_bytes, bounded.total_workload_bytes);
  EXPECT_EQ(full.total_network_transmit_time,
            bounded.total_network_transmit_time);
  EXPECT_EQ(full.latency.count(), bounded.latency.count());
  EXPECT_EQ(full.latency.completed_count(),
            bounded.latency.completed_count());
  EXPECT_DOUBLE_EQ(full.latency.fraction_with_retransmit(),
                   bounded.latency.fraction_with_retransmit());
  EXPECT_EQ(full.recovery_log.count(), bounded.recovery_log.count());
  EXPECT_DOUBLE_EQ(full.recovery_log.fraction_with_timeout(),
                   bounded.recovery_log.fraction_with_timeout());
  EXPECT_DOUBLE_EQ(full.recovery_log.fraction_start_below_ssthresh(),
                   bounded.recovery_log.fraction_start_below_ssthresh());
  EXPECT_DOUBLE_EQ(full.recovery_log.fraction_slow_start_after(),
                   bounded.recovery_log.fraction_slow_start_after());
  EXPECT_GT(full.fraction_bytes_in_fast_recovery(), 0.0);
  EXPECT_DOUBLE_EQ(full.fraction_bytes_in_fast_recovery(),
                   bounded.fraction_bytes_in_fast_recovery());
  // The memory contract: bounded mode keeps no per-sample vectors.
  EXPECT_TRUE(bounded.latency.responses().empty());
  EXPECT_TRUE(bounded.recovery_log.events().empty());
  EXPECT_GT(full.latency.responses().size(), 0u);
}

// The fork-per-shard primitive: disjoint [first_connection, +n) ranges
// sum to the whole run's aggregates exactly.
TEST(StreamingFold, DisjointIdRangesSumToWholeRun) {
  workload::WebWorkload pop;
  RunOptions opts;
  opts.connections = 90;
  opts.seed = 13;
  opts.threads = 1;
  const ArmResult whole = run_arm(pop, ArmConfig::prr_arm(), opts);

  tcp::Metrics summed;
  uint64_t workload_bytes = 0, latency_count = 0, recovery_count = 0;
  sim::Time transmit_ns;
  for (int shard = 0; shard < 3; ++shard) {
    RunOptions part = opts;
    part.first_connection = static_cast<uint64_t>(shard) * 30;
    part.connections = 30;
    const ArmResult r = run_arm(pop, ArmConfig::prr_arm(), part);
    summed.merge(r.metrics);
    workload_bytes += r.total_workload_bytes;
    latency_count += r.latency.count();
    recovery_count += r.recovery_log.count();
    transmit_ns = transmit_ns + r.total_network_transmit_time;
  }
  static_assert(std::is_trivially_copyable_v<tcp::Metrics>);
  EXPECT_EQ(std::memcmp(&whole.metrics, &summed, sizeof(tcp::Metrics)), 0);
  EXPECT_EQ(whole.total_workload_bytes, workload_bytes);
  EXPECT_EQ(whole.latency.count(), latency_count);
  EXPECT_EQ(whole.recovery_log.count(), recovery_count);
  EXPECT_EQ(whole.total_network_transmit_time, transmit_ns);
}

}  // namespace
}  // namespace prr::exp
