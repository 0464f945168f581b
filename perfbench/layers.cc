// The traced run: per-layer metrics measured from outside the program.
// Nothing here changes the simulator; every number comes from timing
// calls into a layer's public functions, from the counters the program
// already exports (the registry, RunOptions::self_profile, the writer's
// accounting), or from the allocation-counting operator new this build
// links in.
//
// Each pass runs, in order:
//   a. the workload's serial sweep, plain: allocations and the exact
//      tcp/stats counts, and the untraced wall time;
//   b. the same sweep through a timing decorator with self-profiling on:
//      per-connection wall time, sample time, event slices, ACK cost;
//   c. the parallel sweep through the decorator: worker busy share;
//   d. the queried store's PRR run three ways, interleaved: trace off,
//      trace on, store capture -- recorder and capture cost by difference;
//   e. the same run collecting the live episode table, checked against
//      episodes_from_store;
//   f. the store queries, timed one by one;
//   g. the net models replayed from the workload's own connection samples.
// Exact counts must agree bit for bit between passes; timings are
// reported as the median over passes.
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <initializer_list>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/link.h"
#include "net/loss_model.h"
#include "net/reorder_model.h"
#include "obs/query.h"
#include "obs/store/store_reader.h"
#include "perfbench.h"
#include "sim/simulator.h"
#include "util/alloc_counter.h"

using namespace prr;

namespace perfbench {

namespace {

constexpr int kMinPasses = 2;
constexpr int kMaxPasses = 5;
constexpr int kObsPairs = 3;           // interleaved off/on/store triples
constexpr std::size_t kNetSamples = 256;  // connection samples replayed
constexpr uint32_t kTrainSegments = 10;   // an initial window

double ns_since(int64_t t0) { return static_cast<double>(now_ns() - t0); }

double ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

// Times every sample_into call and remembers which thread made it and
// which connection it was for (the sample's stream seed identifies it).
class TimedPopulation final : public workload::Population {
 public:
  struct Call {
    int64_t t0 = 0;
    int64_t t1 = 0;
    uint64_t key = 0;
    int thread = 0;
  };

  explicit TimedPopulation(const workload::Population& inner)
      : inner_(inner) {}
  workload::ConnectionSample sample(sim::Rng rng) const override {
    return inner_.sample(rng);
  }
  void sample_into(sim::Rng rng,
                   workload::ConnectionSample& out) const override {
    const uint64_t key = rng.seed();
    const int64_t t0 = now_ns();
    inner_.sample_into(rng, out);
    const int64_t t1 = now_ns();
    std::lock_guard lk(mu_);
    const auto tid = std::this_thread::get_id();
    auto it = std::find(threads_.begin(), threads_.end(), tid);
    if (it == threads_.end()) it = threads_.insert(threads_.end(), tid);
    calls_.push_back({t0, t1, key, static_cast<int>(it - threads_.begin())});
  }

  std::vector<Call> take() {
    std::lock_guard lk(mu_);
    threads_.clear();
    return std::exchange(calls_, {});
  }

 private:
  const workload::Population& inner_;
  mutable std::mutex mu_;
  mutable std::vector<Call> calls_;
  mutable std::vector<std::thread::id> threads_;
};

// Connection id for each sample-stream seed, as the harness derives the
// stream from (seed, id). An unknown key maps to -1.
class ConnIds {
 public:
  ConnIds(uint64_t seed, int n) {
    for (int id = 0; id < n; ++id) {
      ids_[sim::Rng(seed).fork(static_cast<uint64_t>(id)).fork(100).seed()] =
          id;
    }
  }
  int64_t find(uint64_t key) const {
    const auto it = ids_.find(key);
    return it == ids_.end() ? -1 : it->second;
  }

 private:
  std::unordered_map<uint64_t, int64_t> ids_;
};

struct Histo {
  uint64_t count = 0;
  uint64_t sum = 0;
};

Histo profile_histogram(const exp::ArmResult& r, const char* name) {
  const auto* h = r.registry.find_histogram(name);
  return h == nullptr ? Histo{} : Histo{h->count(), h->sum()};
}

uint64_t counter(const exp::ArmResult& r, const char* name) {
  const auto* c = r.registry.find_counter(name);
  return c == nullptr ? 0 : c->value();
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

struct Pass {
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, uint64_t>> exact;
};

class LayerPass {
 public:
  LayerPass(const Bench& b, Tally& tally) : b_(b), tally_(tally) {}

  Pass run() {
    plain_sweep();
    profiled_sweep();
    parallel_sweep();
    obs_runs();
    queries();
    net_replay();
    return std::move(out_);
  }

 private:
  void metric(const char* name, double value, const char* unit) {
    out_.metrics.push_back({name, value, unit});
  }
  void exact(const char* name, uint64_t value) {
    out_.exact.emplace_back(name, value);
  }
  double conn_arms() const {
    return static_cast<double>(b_.spec->connections) *
           static_cast<double>(b_.arms.size());
  }
  std::string sweep_store() const {
    return b_.spec->capture_in_sweep ? b_.path("layers.sweep.prrstore") : "";
  }
  void drop_store(const std::string& prefix, const std::string& arm) {
    if (!prefix.empty()) {
      std::remove(obs::store_path_for_arm(prefix, arm).c_str());
    }
  }

  // a. Plain serial sweep.
  void plain_sweep() {
    const std::string store = sweep_store();
    const util::AllocCounts before = util::alloc_counts();
    const int64_t t0 = now_ns();
    const std::vector<exp::ArmResult> results = b_.sweep(*b_.pop, 1, store);
    untraced_ns_ = ns_since(t0);
    const util::AllocCounts after = util::alloc_counts();
    tally_.count_arms(results, b_.spec->connections);

    uint64_t segments = 0, retx = 0, recoveries = 0, timeouts = 0;
    uint64_t samples = 0, conns = 0;
    for (const exp::ArmResult& r : results) {
      segments += r.metrics.data_segments_sent;
      retx += r.metrics.retransmits_total;
      recoveries += r.metrics.fast_recovery_events;
      timeouts += r.metrics.timeouts_total;
      samples += r.latency.responses().size() +
                 r.recovery_log.events().size();
      conns += r.connections_run;
      drop_store(store, r.name);
    }
    segments_per_conn_ = ratio(static_cast<double>(segments), conn_arms());
    const uint64_t allocs = after.allocations - before.allocations;
    exact("exact.conn_arms", conns);
    exact("exact.segments", segments);
    exact("exact.retransmits", retx);
    exact("exact.allocs", allocs);
    exact("exact.samples", samples);
    metric("exp.allocs_per_conn", ratio(allocs, conn_arms()), "count");
    metric("tcp.segments_per_conn", segments_per_conn_, "count");
    metric("tcp.retransmits_per_conn", ratio(retx, conn_arms()), "count");
    metric("tcp.recoveries_per_conn", ratio(recoveries, conn_arms()),
           "count");
    metric("tcp.timeouts_per_conn", ratio(timeouts, conn_arms()), "count");
    metric("stats.samples_per_conn", ratio(samples, conn_arms()), "count");
  }

  // b. Decorated, self-profiled serial sweep.
  void profiled_sweep() {
    TimedPopulation timed(*b_.pop);
    double sample_ns = 0, wall_ns = 0, traced_ns = 0;
    Histo slice, ack;
    std::vector<double> walls;
    serial_wall_ns_.assign(b_.arms.size(), {});
    for (std::size_t a = 0; a < b_.arms.size(); ++a) {
      exp::RunOptions opts = b_.arm_options(a, 1, sweep_store());
      opts.self_profile = true;
      const int64_t start = now_ns();
      std::vector<exp::ArmResult> one;
      one.push_back(exp::run_arm(timed, b_.arms[a], opts));
      const int64_t end = now_ns();
      traced_ns += static_cast<double>(end - start);
      tally_.count_arms(one, b_.spec->connections);
      drop_store(opts.store_path, one.front().name);
      const auto calls = timed.take();
      std::vector<double>& by_id = serial_wall_ns_[a];
      by_id.assign(static_cast<std::size_t>(b_.spec->connections), 0.0);
      for (std::size_t k = 0; k < calls.size(); ++k) {
        const int64_t next = k + 1 < calls.size() ? calls[k + 1].t0 : end;
        const double wall = static_cast<double>(next - calls[k].t0);
        walls.push_back(wall);
        wall_ns += wall;
        sample_ns += static_cast<double>(calls[k].t1 - calls[k].t0);
        const int64_t id = ids_.find(calls[k].key) -
                           static_cast<int64_t>(opts.first_connection);
        if (id >= 0 && id < static_cast<int64_t>(by_id.size())) {
          by_id[static_cast<std::size_t>(id)] = wall;
        }
      }
      const Histo s = profile_histogram(one.front(), "profile.slice_ns");
      const Histo k = profile_histogram(one.front(), "profile.ack_ns");
      slice.count += s.count;
      slice.sum += s.sum;
      ack.count += k.count;
      ack.sum += k.sum;
    }
    const double n = conn_arms();
    exact("exact.events", slice.count);
    exact("exact.acks", ack.count);
    metric("workload.sample_ns_per_conn", sample_ns / n, "ns");
    metric("exp.conn_wall_us_p50", quantile(walls, 0.50) * 1e-3, "us");
    metric("exp.conn_wall_us_p99", quantile(walls, 0.99) * 1e-3, "us");
    metric("exp.harness_ns_per_conn",
           (wall_ns - sample_ns - static_cast<double>(slice.sum)) / n, "ns");
    metric("sim.events_per_conn", ratio(slice.count, n), "count");
    metric("sim.slice_ns_mean", ratio(slice.sum, slice.count), "ns");
    metric("tcp.acks_per_conn", ratio(ack.count, n), "count");
    metric("tcp.ack_ns_mean", ratio(ack.sum, ack.count), "ns");
    metric("tcp.ack_ns_share", ratio(ack.sum, wall_ns), "ratio");
    // Decorator plus self-profiling, against the plain sweep of pass a.
    metric("trace_overhead_pct", (traced_ns / untraced_ns_ - 1.0) * 100.0,
           "%");
  }

  // c. Decorated parallel sweep. Inside one worker chunk, consecutive ids
  // follow each other directly, so the gap between their sample calls is
  // busy time. A chunk's last connection is charged its serial wall time
  // from pass b; the rest of that gap is claim/fold/idle time.
  void parallel_sweep() {
    TimedPopulation timed(*b_.pop);
    double busy_ns = 0, capacity_ns = 0;
    for (std::size_t a = 0; a < b_.arms.size(); ++a) {
      const exp::RunOptions opts =
          b_.arm_options(a, b_.par_threads, sweep_store());
      const int64_t start = now_ns();
      std::vector<exp::ArmResult> one;
      one.push_back(exp::run_arm(timed, b_.arms[a], opts));
      const double wall = ns_since(start);
      tally_.count_arms(one, b_.spec->connections);
      drop_store(opts.store_path, one.front().name);
      auto calls = timed.take();
      std::stable_sort(calls.begin(), calls.end(),
                       [](const auto& x, const auto& y) {
                         return x.thread < y.thread;
                       });
      const std::vector<double>& serial = serial_wall_ns_[a];
      const int64_t base = static_cast<int64_t>(opts.first_connection);
      auto serial_wall = [&serial, base](int64_t id) {
        id -= base;
        return id >= 0 && id < static_cast<int64_t>(serial.size())
                   ? serial[static_cast<std::size_t>(id)]
                   : 0.0;
      };
      for (std::size_t k = 0; k < calls.size(); ++k) {
        const int64_t id = ids_.find(calls[k].key);
        const bool chained = k + 1 < calls.size() &&
                             calls[k + 1].thread == calls[k].thread &&
                             id >= 0 && ids_.find(calls[k + 1].key) == id + 1;
        busy_ns += chained ? static_cast<double>(calls[k + 1].t0 - calls[k].t0)
                           : serial_wall(id);
      }
      capacity_ns += wall * b_.par_threads;
    }
    metric("exp.worker_busy_frac", ratio(busy_ns, capacity_ns), "ratio");
  }

  // d + e. The queried store's PRR run: trace off / trace on / capture,
  // interleaved, then once more collecting the live episode table.
  void obs_runs() {
    const exp::ArmConfig prr = exp::ArmConfig::prr_arm();
    const exp::RunOptions store_opts = b_.capture_options();
    exp::RunOptions off = store_opts;
    off.store_path.clear();
    exp::RunOptions on = off;
    on.trace = true;
    std::vector<double> off_ns, on_ns, store_ns;
    uint64_t records = 0;
    for (int i = 0; i < kObsPairs; ++i) {
      for (const exp::RunOptions* opts :
           std::initializer_list<const exp::RunOptions*>{&off, &on,
                                                         &store_opts}) {
        const int64_t t0 = now_ns();
        std::vector<exp::ArmResult> one;
        one.push_back(exp::run_arm(*b_.pop, prr, *opts));
        const double ns = ns_since(t0);
        tally_.count_arms(one, opts->connections);
        const exp::ArmResult& r = one.front();
        if (opts == &off) off_ns.push_back(ns);
        if (opts == &on) {
          on_ns.push_back(ns);
          records = counter(r, "obs.trace.records_written");
        }
        if (opts == &store_opts) {
          store_ns.push_back(ns);
          store_records_ = r.store_records;
          store_connections_ = r.store_connections;
          store_bytes_ = r.store_payload_bytes;
        }
      }
    }
    store_file_ = obs::store_path_for_arm(store_opts.store_path, prr.name);
    const double conns = static_cast<double>(store_opts.connections);
    exact("exact.records", records);
    exact("exact.store_records", store_records_);
    exact("exact.store_bytes", store_bytes_);
    metric("obs.records_per_conn", ratio(records, conns), "count");
    metric("obs.trace_ns_per_record",
           ratio(median(on_ns) - median(off_ns), records), "ns");
    metric("obs.capture_ns_per_conn",
           (median(store_ns) - median(on_ns)) / conns, "ns");

    exp::RunOptions live_opts = off;
    live_opts.collect_episodes = true;
    std::vector<exp::ArmResult> live;
    live.push_back(exp::run_arm(*b_.pop, prr, live_opts));
    tally_.count_arms(live, live_opts.connections);
    live_episodes_json_ = live.front().episodes.to_json();
  }

  // f. Store queries, each timed alone, plus a full block decode.
  void queries() {
    std::vector<double> open_ms, agg_ms, episodes_ms, decode_ns;
    for (int i = 0; i < kObsPairs; ++i) {
      const QueryRun q = run_query_set(store_file_);
      if (!tally_.check(q.ok, "traced query set decodes")) return;
      open_ms.push_back(q.open_s * 1e3);
      agg_ms.push_back(q.agg_s * 1e3);
      episodes_ms.push_back(q.episodes_s * 1e3);
      if (i == 0) {
        tally_.check(q.store_records == store_records_ &&
                         q.store_connections == store_connections_,
                     "StoreReader totals equal ArmResult::store_records "
                     "and store_connections");
        tally_.check(q.truncated_blocks == 0,
                     "no ring-truncated blocks in the queried store");
        tally_.check(q.episodes_json == live_episodes_json_,
                     "episodes_from_store equals the live EpisodeTable");
      }
    }
    obs::StoreReader reader;
    std::string err;
    if (!tally_.check(obs::StoreReader::open(store_file_, &reader, &err),
                      "store reopens: " + err)) {
      return;
    }
    std::vector<obs::TraceRecord> records;
    for (int i = 0; i < kObsPairs; ++i) {
      uint64_t decoded = 0;
      bool ok = true;
      const int64_t t0 = now_ns();
      for (std::size_t blk = 0; blk < reader.blocks().size(); ++blk) {
        records.clear();
        ok = reader.read_block(blk, &records) && ok;
        decoded += records.size();
      }
      const double ns = ns_since(t0);
      tally_.check(ok && decoded == reader.total_records(),
                   "read_block decodes every record");
      decode_ns.push_back(ratio(ns, decoded));
    }
    std::remove(store_file_.c_str());
    metric("obs.open_ms", median(open_ms), "ms");
    metric("obs.decode_ns_per_record", median(decode_ns), "ns");
    metric("obs.agg_ms", median(agg_ms), "ms");
    metric("obs.episodes_ms", median(episodes_ms), "ms");
  }

  // g. Net models replayed outside the simulator from the workload's own
  // samples, for as many draws per connection as pass a sent segments.
  void net_replay() {
    const std::size_t n = std::min<std::size_t>(
        kNetSamples, static_cast<std::size_t>(b_.spec->connections));
    const uint64_t draws =
        std::max<uint64_t>(1, static_cast<uint64_t>(segments_per_conn_));
    const uint32_t mss = exp::ArmConfig{}.mss;
    double loss_ns = 0, reorder_ns = 0, link_ns = 0;
    uint64_t loss_draws = 0, reorder_draws = 0, link_segments = 0;
    uint64_t sink = 0;
    for (std::size_t id = 0; id < n; ++id) {
      const sim::Rng conn_rng = sim::Rng(b_.seed).fork(id);
      const workload::ConnectionSample s = b_.pop->sample(conn_rng.fork(100));
      const sim::Time gap = s.bandwidth.transmit_time(
          mss + net::Segment::kHeaderBytes);
      net::Segment seg;
      seg.len = mss;

      // Loss: the composite the harness builds for this sample.
      const bool ge = s.loss.p_good_to_bad > 0 || s.loss.loss_in_good > 0;
      if (ge || s.outages) {
        sim::Simulator clock;
        net::CompositeLoss loss;
        if (ge) {
          loss.add(std::make_unique<net::GilbertElliottLoss>(
              s.loss, conn_rng.fork(102)));
        }
        if (s.outages) {
          loss.add(std::make_unique<net::OutageLoss>(clock, s.outage,
                                                     conn_rng.fork(104)));
        }
        const int64_t t0 = now_ns();
        for (uint64_t i = 0; i < draws; ++i) {
          clock.advance_to(clock.now() + gap);
          sink += loss.should_drop(seg);
        }
        loss_ns += ns_since(t0);
        loss_draws += draws;
      }

      if (s.reorder_prob > 0) {
        net::RandomReorder reorder(s.reorder_prob, s.reorder_min,
                                   s.reorder_max, conn_rng.fork(103));
        const int64_t t0 = now_ns();
        for (uint64_t i = 0; i < draws; ++i) {
          sink += static_cast<uint64_t>(reorder.extra_delay(seg).ns());
        }
        reorder_ns += ns_since(t0);
        reorder_draws += draws;
      }

      // Link: serialization, queue and propagation through a simulator,
      // one initial window per train.
      sim::Simulator sim;
      sim.set_batch_delivery(exp::RunOptions{}.batch_delivery);
      net::Link::Config cfg;
      cfg.rate = s.bandwidth;
      cfg.propagation_delay = s.rtt / 2;
      cfg.queue_limit_packets = s.queue_packets;
      uint64_t delivered = 0;
      net::Link link(sim, cfg, [&delivered](net::Segment&&) { ++delivered; });
      const int64_t t0 = now_ns();
      for (uint64_t sent = 0; sent < draws;) {
        for (uint32_t k = 0; k < kTrainSegments && sent < draws; ++k) {
          net::Segment data;
          data.seq = sent * mss;
          data.len = mss;
          data.id = sent;
          link.send(std::move(data));
          ++sent;
        }
        sim.run();
      }
      link_ns += ns_since(t0);
      link_segments += draws;
      sink += delivered;
    }
    if (sink == 0) std::printf("net replay: nothing dropped or delivered\n");
    metric("net.loss_draw_ns", ratio(loss_ns, loss_draws), "ns");
    metric("net.reorder_draw_ns", ratio(reorder_ns, reorder_draws), "ns");
    metric("net.link_ns_per_segment", ratio(link_ns, link_segments), "ns");
  }

  const Bench& b_;
  Tally& tally_;
  ConnIds ids_{b_.seed, b_.total_connections()};
  Pass out_;
  double untraced_ns_ = 0;
  double segments_per_conn_ = 0;
  std::vector<std::vector<double>> serial_wall_ns_;
  std::string store_file_;
  uint64_t store_records_ = 0, store_connections_ = 0, store_bytes_ = 0;
  std::string live_episodes_json_;
};

}  // namespace

std::vector<Metric> run_layers(const Bench& b, double budget_s, Tally& tally) {
  const int64_t start = now_ns();
  // Warm-up: lazily initialized statics allocate once per process, so
  // the first counted pass must not be the first run.
  {
    b.sweep(*b.pop, 1, "", 0, std::min(b.spec->connections, 50));
  }
  std::vector<Pass> passes;
  double pass_s = 0;  // the last pass's length: stop before overrunning
  auto elapsed = [start] {
    return static_cast<double>(now_ns() - start) * 1e-9;
  };
  while (static_cast<int>(passes.size()) < kMinPasses ||
         (static_cast<int>(passes.size()) < kMaxPasses &&
          elapsed() + pass_s <= budget_s)) {
    const double pass_start = elapsed();
    passes.push_back(LayerPass(b, tally).run());
    pass_s = elapsed() - pass_start;
  }

  const Pass& first = passes.front();
  for (const auto& [name, value] : first.exact) {
    std::printf("%s=%" PRIu64 "\n", name.c_str(), value);
  }
  for (std::size_t p = 1; p < passes.size(); ++p) {
    tally.check(passes[p].exact == first.exact,
                "exact counts of pass " + std::to_string(p + 1) +
                    " equal pass 1");
  }

  std::vector<Metric> metrics;
  for (std::size_t m = 0; m < first.metrics.size(); ++m) {
    std::vector<double> values;
    for (const Pass& p : passes) values.push_back(p.metrics[m].value);
    metrics.push_back({first.metrics[m].name, median(values),
                       first.metrics[m].unit});
  }
  for (const auto& [name, value] : first.exact) {
    metrics.push_back({name, static_cast<double>(value), "count"});
  }
  std::printf("passes=%zu\n", passes.size());
  return metrics;
}

}  // namespace perfbench
