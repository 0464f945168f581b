// Microbenchmarks (google-benchmark): per-ACK cost of the PRR state
// machine, the recovery policies, and the SACK scoreboard — the code
// that runs on every ACK of every connection in a server, so constant
// factors matter. Also benchmarks a full simulated connection with the
// invariant checker detached vs attached: detached must cost nothing
// (the checker is attach-only), attached costs one indirect call plus
// the checks per ACK. BM_RngFirstDraw/BM_RngPrime price a fresh
// per-connection RNG stream up to its first value. BM_SegmentHop prices
// one data segment and its ACK through a Path.
#include <benchmark/benchmark.h>

#include "core/prr.h"
#include "http/server_app.h"
#include "net/link.h"
#include "net/path.h"
#include "net/segment.h"
#include "obs/flight_recorder.h"
#include "obs/instrument.h"
#include "sim/rng.h"
#include "sim/simulator.h"
#include "tcp/connection.h"
#include "tcp/invariants.h"
#include "tcp/recovery/prr.h"
#include "tcp/recovery/rate_halving.h"
#include "tcp/recovery/rfc3517.h"
#include "tcp/scoreboard.h"
#include "util/alloc_counter.h"

namespace {

constexpr uint32_t kMss = 1460;

// Reports heap allocations per iteration next to ns/op, via the
// operator new/delete counting hooks linked into this binary. The hot
// per-ACK paths must show 0 here (see tests/test_alloc_free.cc for the
// enforcing test).
class AllocsPerOp {
 public:
  explicit AllocsPerOp(benchmark::State& state)
      : state_(state), start_(prr::util::alloc_counts()) {}
  ~AllocsPerOp() {
    const prr::util::AllocCounts end = prr::util::alloc_counts();
    state_.counters["allocs_per_op"] = benchmark::Counter(
        static_cast<double>(end.allocations - start_.allocations),
        benchmark::Counter::kAvgIterations);
  }

 private:
  benchmark::State& state_;
  prr::util::AllocCounts start_;
};

void BM_PrrOnAck(benchmark::State& state) {
  prr::core::PrrState s;
  s.enter_recovery(100 * kMss, 70 * kMss, kMss);
  uint64_t pipe = 90 * kMss;
  AllocsPerOp allocs(state);
  for (auto _ : state) {
    const uint64_t sndcnt = s.on_ack(kMss, pipe);
    s.on_data_sent(sndcnt);
    benchmark::DoNotOptimize(sndcnt);
    pipe = pipe > kMss ? pipe - kMss : 90 * kMss;
    if (s.prr_delivered() > 95 * kMss) {
      s.enter_recovery(100 * kMss, 70 * kMss, kMss);
    }
  }
}
BENCHMARK(BM_PrrOnAck);

// Steady-state event churn: schedule + fire (the Link/Timer pattern)
// and a timer-style reschedule, on a warm queue. Both must report
// allocs_per_op == 0 — the slot map recycles storage. The argument is
// the standing population: 2 is the sweep's real regime (its heap holds
// ~2.4 entries on average), 64 a deep heap.
void BM_EventSchedule(benchmark::State& state) {
  prr::sim::EventQueue q;
  int64_t now_us = 0;
  uint64_t fired = 0;
  // Warm the slot and heap vectors with a standing population.
  std::vector<prr::sim::EventId> standing;
  for (int64_t i = 0; i < state.range(0); ++i) {
    standing.push_back(q.schedule(
        prr::sim::Time::microseconds(1'000'000'000 + i), [&fired] {
          ++fired;
        }));
  }
  AllocsPerOp allocs(state);
  for (auto _ : state) {
    q.schedule(prr::sim::Time::microseconds(now_us + 10),
               [&fired] { ++fired; });
    ++now_us;
    while (!q.empty() &&
           q.next_time() <= prr::sim::Time::microseconds(now_us)) {
      q.run_next();
    }
  }
  benchmark::DoNotOptimize(fired);
}
BENCHMARK(BM_EventSchedule)->Arg(2)->Arg(64);

void BM_EventReschedule(benchmark::State& state) {
  prr::sim::EventQueue q;
  uint64_t fired = 0;
  prr::sim::EventId id =
      q.schedule(prr::sim::Time::microseconds(1), [&fired] { ++fired; });
  int64_t at = 1;
  AllocsPerOp allocs(state);
  for (auto _ : state) {
    id = q.reschedule(id, prr::sim::Time::microseconds(++at));
    benchmark::DoNotOptimize(id);
  }
  benchmark::DoNotOptimize(fired);
}
BENCHMARK(BM_EventReschedule);

// ACK-train delivery through a Link: `train` back-to-back 40-byte ACKs
// enter a fast link whose propagation delay holds them all in flight at
// once, so they arrive as one contiguous train. Per-event mode (Arg 1 ==
// 0) pays one EventQueue round-trip per ACK; batch mode (Arg 1 == 1)
// pays one drain event per train and dispatches the rest inline
// (DESIGN.md §12). ns/op is per train, so the per-ACK dispatch saving
// scales with the train length. Must report allocs_per_op == 0.
void BM_AckTrainDeliver(benchmark::State& state) {
  const int train = static_cast<int>(state.range(0));
  const bool batch = state.range(1) != 0;
  prr::sim::Simulator sim;
  sim.set_batch_delivery(batch);
  uint64_t delivered = 0;
  prr::net::Link::Config cfg;
  cfg.rate = prr::util::DataRate::mbps(10'000);
  cfg.propagation_delay = prr::sim::Time::microseconds(50);
  cfg.queue_limit_packets = 256;
  prr::net::Link link(sim, cfg,
                      [&delivered](prr::net::Segment&&) { ++delivered; });
  AllocsPerOp allocs(state);
  for (auto _ : state) {
    for (int i = 0; i < train; ++i) {
      prr::net::Segment ack;
      ack.is_ack = true;
      ack.ack = delivered * 1460;
      link.send(std::move(ack));
    }
    sim.run(sim.now() + prr::sim::Time::microseconds(200));
  }
  if (delivered !=
      static_cast<uint64_t>(train) * static_cast<uint64_t>(state.iterations())) {
    state.SkipWithError("train not fully delivered");
  }
  state.counters["acks_per_op"] = benchmark::Counter(
      static_cast<double>(train));
}
BENCHMARK(BM_AckTrainDeliver)
    ->ArgsProduct({{1, 4, 16, 64}, {0, 1}});

// One packet hop pair, the sweep's unit of work: a data segment crosses
// a Path's data link to a sink that answers with an ACK (one SACK
// block), which crosses the ACK mangler and ACK link back to the ACK
// sink. ns/op covers both hops; allocs_per_op must be 0.
void BM_SegmentHop(benchmark::State& state) {
  prr::sim::Simulator sim;
  sim.set_batch_delivery(true);
  prr::net::Path path(
      sim,
      prr::net::Path::Config::symmetric(prr::util::DataRate::mbps(100),
                                        prr::sim::Time::milliseconds(10)),
      prr::sim::Rng(1));
  uint64_t acked = 0;
  path.set_data_sink([&path](prr::net::Segment&& seg) {
    prr::net::Segment ack;
    ack.is_ack = true;
    ack.ack = seg.seq + seg.len;
    ack.sacks.push_back({ack.ack + kMss, ack.ack + 2 * kMss});
    path.send_ack(std::move(ack));
  });
  path.set_ack_sink(
      [&acked](prr::net::Segment&& ack) { acked = ack.ack; });
  uint64_t seq = 0;
  auto hop = [&] {
    prr::net::Segment data;
    data.seq = seq;
    data.len = kMss;
    seq += kMss;
    path.send_data(std::move(data));
    sim.run();
  };
  for (int i = 0; i < 4; ++i) hop();  // warm the pools
  AllocsPerOp allocs(state);
  for (auto _ : state) hop();
  if (acked != seq) state.SkipWithError("ACK not delivered");
}
BENCHMARK(BM_SegmentHop);

template <typename Policy>
void BM_PolicyOnAck(benchmark::State& state) {
  Policy p;
  p.on_enter(100 * kMss, 50 * kMss, 100 * kMss, kMss);
  uint64_t cwnd = 100 * kMss;
  int acks = 0;
  for (auto _ : state) {
    cwnd = p.on_ack(kMss, 80 * kMss);
    p.on_sent(kMss);
    benchmark::DoNotOptimize(cwnd);
    if (++acks % 128 == 0) {
      p.on_enter(100 * kMss, 50 * kMss, 100 * kMss, kMss);
      cwnd = 100 * kMss;
    }
  }
}
BENCHMARK(BM_PolicyOnAck<prr::tcp::PrrRecovery>);
BENCHMARK(BM_PolicyOnAck<prr::tcp::RateHalvingRecovery>);
BENCHMARK(BM_PolicyOnAck<prr::tcp::Rfc3517Recovery>);

void BM_ScoreboardSackProcessing(benchmark::State& state) {
  const int window = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    prr::tcp::Scoreboard sb(kMss);
    sb.reset(0);
    for (int i = 0; i < window; ++i) {
      sb.on_transmit(static_cast<uint64_t>(i) * kMss,
                     static_cast<uint64_t>(i + 1) * kMss,
                     prr::sim::Time::zero());
    }
    state.ResumeTiming();
    // One SACK per segment from the middle of the window outward.
    for (int i = window / 2; i < window; ++i) {
      prr::net::Segment ack;
      ack.is_ack = true;
      ack.ack = 0;
      ack.sacks.push_back({static_cast<uint64_t>(window / 2) * kMss,
                           static_cast<uint64_t>(i + 1) * kMss});
      benchmark::DoNotOptimize(
          sb.on_ack(ack, prr::sim::Time::zero()));
    }
    benchmark::DoNotOptimize(sb.pipe());
  }
}
BENCHMARK(BM_ScoreboardSackProcessing)->Arg(32)->Arg(128)->Arg(512);

void BM_ScoreboardPipe(benchmark::State& state) {
  const int window = static_cast<int>(state.range(0));
  prr::tcp::Scoreboard sb(kMss);
  sb.reset(0);
  for (int i = 0; i < window; ++i) {
    sb.on_transmit(static_cast<uint64_t>(i) * kMss,
                   static_cast<uint64_t>(i + 1) * kMss,
                   prr::sim::Time::zero());
  }
  sb.update_loss_marks(3, true);
  AllocsPerOp allocs(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sb.pipe());
  }
}
BENCHMARK(BM_ScoreboardPipe)->Arg(32)->Arg(128)->Arg(512);

// The other per-ACK scoreboard queries (sacked/lost tallies): like
// pipe(), these must be O(1) — flat across window sizes.
void BM_ScoreboardCounters(benchmark::State& state) {
  const int window = static_cast<int>(state.range(0));
  prr::tcp::Scoreboard sb(kMss);
  sb.reset(0);
  for (int i = 0; i < window; ++i) {
    sb.on_transmit(static_cast<uint64_t>(i) * kMss,
                   static_cast<uint64_t>(i + 1) * kMss,
                   prr::sim::Time::zero());
  }
  // SACK the upper half so every tally is non-trivial.
  prr::net::Segment ack;
  ack.is_ack = true;
  ack.ack = 0;
  ack.sacks.push_back({static_cast<uint64_t>(window / 2) * kMss,
                       static_cast<uint64_t>(window) * kMss});
  sb.on_ack(ack, prr::sim::Time::zero());
  sb.update_loss_marks(3, true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sb.total_sacked_bytes());
    benchmark::DoNotOptimize(sb.sacked_segment_count());
    benchmark::DoNotOptimize(sb.lost_segment_count());
    benchmark::DoNotOptimize(sb.any_sacked());
  }
}
BENCHMARK(BM_ScoreboardCounters)->Arg(32)->Arg(128)->Arg(512);

// Cost of a fresh per-connection stream up to its first value: fork,
// seed what the first draw reads, twist once. Every sampled connection
// pays this for each stream that draws.
void BM_RngFirstDraw(benchmark::State& state) {
  const prr::sim::Rng root(20110501);
  uint64_t stream = 0;
  AllocsPerOp allocs(state);
  for (auto _ : state) {
    prr::sim::Rng r = root.fork(++stream);
    benchmark::DoNotOptimize(r.uniform());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RngFirstDraw);

// N fresh streams seeded in one lockstep group (Rng::prime), then one
// draw from each. Compare the per-stream rate against BM_RngFirstDraw.
void BM_RngPrime(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const prr::sim::Rng root(20110501);
  uint64_t stream = 0;
  AllocsPerOp allocs(state);
  for (auto _ : state) {
    prr::sim::Rng r[4] = {root.fork(++stream), root.fork(++stream),
                          root.fork(++stream), root.fork(++stream)};
    prr::sim::Rng::prime({&r[0], n > 1 ? &r[1] : nullptr,
                          n > 2 ? &r[2] : nullptr, n > 3 ? &r[3] : nullptr});
    for (std::size_t k = 0; k < n; ++k) {
      benchmark::DoNotOptimize(r[k].uniform());
    }
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_RngPrime)->DenseRange(1, 4);

// Full connection (100 kB over a clean 10 Mbps / 40 ms path), with the
// invariant checker off (Arg 0) vs attached (Arg 1). Arg 0 must match
// the pre-checker baseline: an unconstructed checker adds zero work.
void BM_ConnectionRun(benchmark::State& state) {
  const bool check = state.range(0) != 0;
  uint64_t acks = 0;
  for (auto _ : state) {
    prr::sim::Simulator sim;
    prr::tcp::ConnectionConfig cfg;
    cfg.path = prr::net::Path::Config::symmetric(
        prr::util::DataRate::mbps(10), prr::sim::Time::milliseconds(40),
        /*queue_packets=*/100);
    prr::tcp::Connection conn(sim, cfg, prr::sim::Rng(5));
    std::unique_ptr<prr::tcp::InvariantChecker> checker;
    if (check) {
      checker = std::make_unique<prr::tcp::InvariantChecker>(sim,
                                                             conn.sender());
    }
    std::vector<prr::http::ResponseSpec> responses(1);
    responses[0].bytes = 100'000;
    prr::http::ServerApp app(sim, conn, responses);
    app.start();
    sim.run(prr::sim::Time::seconds(30));
    if (checker) {
      checker->finalize();
      acks += checker->acks_checked();
      benchmark::DoNotOptimize(checker->ok());
    }
    benchmark::DoNotOptimize(conn.sender().all_acked());
  }
  if (check) state.counters["acks_checked_per_iter"] =
      static_cast<double>(acks) / static_cast<double>(state.iterations());
}
BENCHMARK(BM_ConnectionRun)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMicrosecond);

// Raw flight-recorder write: one 64-byte masked ring store plus the
// per-type counter — the ceiling on what any PRR_TRACE site can cost.
// Must report allocs_per_op == 0.
void BM_FlightRecorderWrite(benchmark::State& state) {
  prr::obs::FlightRecorder rec(4096);
  int64_t t = 0;
  AllocsPerOp allocs(state);
  for (auto _ : state) {
    rec.write(prr::obs::make_record(prr::sim::Time::nanoseconds(++t), 1,
                                    prr::obs::TraceType::kAck, 2, 0, 1000,
                                    14608, 10000, 7304, 1460, 20000));
  }
  benchmark::DoNotOptimize(rec.total_written());
}
BENCHMARK(BM_FlightRecorderWrite);

// The same 100 kB connection as BM_ConnectionRun/0, with the full
// observability stack attached (flight recorder on the sender and the
// fault injector path, wire tap, timer tracing). Compare against
// BM_ConnectionRun/0 for the enabled-tracing overhead; perfbench
// `--trace 1` reports the sweep-level version of this comparison
// (obs.trace_ns_per_record).
void BM_ConnectionRunTraced(benchmark::State& state) {
  uint64_t records = 0;
  // One ring for the whole run, cleared per connection — the same shape
  // the sweep harness uses, so this measures steady-state tracing cost,
  // not ring construction.
  prr::obs::FlightRecorder recorder(4096);
  for (auto _ : state) {
    recorder.clear();
    prr::sim::Simulator sim;
    prr::tcp::ConnectionConfig cfg;
    cfg.path = prr::net::Path::Config::symmetric(
        prr::util::DataRate::mbps(10), prr::sim::Time::milliseconds(40),
        /*queue_packets=*/100);
    prr::tcp::Connection conn(sim, cfg, prr::sim::Rng(5));
    prr::obs::Instrument instrument(sim, conn, recorder, /*conn_id=*/0);
    std::vector<prr::http::ResponseSpec> responses(1);
    responses[0].bytes = 100'000;
    prr::http::ServerApp app(sim, conn, responses);
    app.start();
    sim.run(prr::sim::Time::seconds(30));
    records += recorder.total_written();
    benchmark::DoNotOptimize(conn.sender().all_acked());
  }
  state.counters["records_per_iter"] =
      static_cast<double>(records) / static_cast<double>(state.iterations());
}
BENCHMARK(BM_ConnectionRunTraced)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
