// Trace-store files are a pure function of (population, arm, seed,
// capture policy): byte-identical across worker-thread counts, with
// tracing on or off, with pooling on or off, and across the split-run +
// merge path. This is the contract that makes store artifacts diffable
// and lets fork-per-shard sweeps reproduce the single-process file.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "chaos_store_input.h"
#include "exp/experiment.h"
#include "obs/store/store_format.h"
#include "workload/web_workload.h"

namespace prr {
namespace {

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "prr_store_det_" + name;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

exp::RunOptions base_opts() {
  exp::RunOptions opts;
  opts.connections = 200;
  opts.seed = 20110501;
  opts.capture = "sample=4,full=timeout";
  return opts;
}

// Each determinism property holds on plain web traffic with a triggered
// policy and on the chaos input with capture=all. Store bytes are
// compared with EXPECT_TRUE(a == b): a failing EXPECT_EQ would print
// both binary files.
struct Input {
  const char* name;
  const workload::Population& pop;
  exp::RunOptions opts;
};

std::vector<Input> inputs() {
  static const workload::WebWorkload web;
  return {{"web", web, base_opts()},
          {"chaos", chaos_store::population(), chaos_store::options()}};
}

// Runs the arm with `opts` and returns the produced store file's bytes
// (deleting the file).
std::string store_bytes(const workload::Population& pop,
                        exp::RunOptions opts, const std::string& name) {
  opts.store_path = temp_path(name);
  const exp::ArmConfig arm = exp::ArmConfig::prr_arm();
  exp::run_arm(pop, arm, opts);
  const std::string path = obs::store_path_for_arm(opts.store_path, arm.name);
  std::string bytes = slurp(path);
  std::remove(path.c_str());
  return bytes;
}

TEST(StoreDeterminism, ByteIdenticalAcrossThreadCounts) {
  for (const Input& in : inputs()) {
    SCOPED_TRACE(in.name);
    exp::RunOptions opts = in.opts;
    opts.threads = 1;
    const std::string serial = store_bytes(in.pop, opts, "t1.prrstore");
    ASSERT_FALSE(serial.empty());
    for (int threads : {4, 8}) {
      opts.threads = threads;
      EXPECT_TRUE(store_bytes(in.pop, opts, "tn.prrstore") == serial)
          << "threads=" << threads;
    }
  }
}

TEST(StoreDeterminism, IndependentOfOtherObservability) {
  for (const Input& in : inputs()) {
    SCOPED_TRACE(in.name);
    const std::string plain = store_bytes(in.pop, in.opts, "plain.prrstore");
    ASSERT_FALSE(plain.empty());

    for (int threads : {1, 4, 8}) {
      exp::RunOptions traced = in.opts;
      traced.trace = true;
      traced.collect_episodes = true;
      traced.threads = threads;
      EXPECT_TRUE(store_bytes(in.pop, traced, "traced.prrstore") == plain)
          << "traced, threads=" << threads;
    }

    exp::RunOptions unpooled = in.opts;
    unpooled.pool_connections = false;
    EXPECT_TRUE(store_bytes(in.pop, unpooled, "unpooled.prrstore") == plain);

    exp::RunOptions bounded = in.opts;
    bounded.bounded_stats = true;
    bounded.threads = 4;
    EXPECT_TRUE(store_bytes(in.pop, bounded, "bounded.prrstore") == plain);
  }
}

TEST(StoreDeterminism, StoreCaptureDoesNotPerturbAggregates) {
  workload::WebWorkload pop;
  const exp::ArmConfig arm = exp::ArmConfig::prr_arm();
  exp::RunOptions off = base_opts();
  exp::RunOptions on = base_opts();
  on.store_path = temp_path("agg.prrstore");

  const exp::ArmResult r_off = exp::run_arm(pop, arm, off);
  const exp::ArmResult r_on = exp::run_arm(pop, arm, on);
  EXPECT_EQ(r_off.metrics.data_segments_sent, r_on.metrics.data_segments_sent);
  EXPECT_EQ(r_off.metrics.bytes_sent, r_on.metrics.bytes_sent);
  EXPECT_EQ(r_off.metrics.retransmits_total, r_on.metrics.retransmits_total);
  EXPECT_EQ(r_off.metrics.timeouts_total, r_on.metrics.timeouts_total);
  EXPECT_EQ(r_off.metrics.fast_recovery_events,
            r_on.metrics.fast_recovery_events);
  EXPECT_EQ(r_off.total_workload_bytes, r_on.total_workload_bytes);
  const std::string path = obs::store_path_for_arm(on.store_path, arm.name);
  std::remove(path.c_str());
}

// Format tripwire: the exact payload of a fixed capture. Any change to
// the encoding, or to the record stream, has to update these on purpose.
TEST(StoreDeterminism, ExactPayloadOfAFixedWebCapture) {
  workload::WebWorkload pop;
  const exp::ArmConfig arm = exp::ArmConfig::prr_arm();
  exp::RunOptions opts;
  opts.connections = 500;
  opts.seed = 42;
  opts.capture = "all";
  opts.store_path = temp_path("exact.prrstore");
  const exp::ArmResult r = exp::run_arm(pop, arm, opts);
  std::remove(obs::store_path_for_arm(opts.store_path, arm.name).c_str());
  EXPECT_EQ(r.store_connections, 500u);
  EXPECT_EQ(r.store_records, 27905u);
  EXPECT_EQ(r.store_payload_bytes, 372935u);  // 13.36 B per record
}

}  // namespace
}  // namespace prr
