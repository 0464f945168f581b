// Metrics registry (DESIGN.md §8): named counters, gauges, and
// log2-bucket histograms. Instruments are registered once at setup —
// registration returns a pointer that stays valid for the registry's
// lifetime — and sampled O(1) with no allocation on the hot path.
// Registries merge deterministically (counters sum, gauges take the
// max, histograms sum per bucket), mirroring how ArmResult shards
// merge in connection-id order, so per-arm metric totals are
// bit-identical at any worker-thread count. `to_json()` walks the
// name-sorted maps, so the exported JSON is byte-stable too.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "util/log2_hist.h"

namespace prr::obs {

class Counter {
 public:
  void add(uint64_t v) { value_ += v; }
  void inc() { ++value_; }
  uint64_t value() const { return value_; }

 private:
  uint64_t value_ = 0;
};

// Last-written-wins locally; merge keeps the max across shards (the
// only deterministic choice that is also useful for high-water marks).
class Gauge {
 public:
  void set(int64_t v) { value_ = v; }
  int64_t value() const { return value_; }

 private:
  int64_t value_ = 0;
};

// Histogram over log2 buckets. The implementation lives in
// util::Log2Histogram so layers below obs (the simulator's and sender's
// self-profiling taps) can use the same fold; this alias keeps the
// obs-facing name and API stable.
using LogHistogram = util::Log2Histogram;

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;
  MetricsRegistry(MetricsRegistry&&) = default;
  MetricsRegistry& operator=(MetricsRegistry&&) = default;

  // Idempotent: re-registering a name returns the existing instrument.
  Counter* counter(const std::string& name);
  Gauge* gauge(const std::string& name);
  LogHistogram* histogram(const std::string& name);

  // nullptr when absent — for tests and reconciliation tools.
  const Counter* find_counter(const std::string& name) const;
  const Gauge* find_gauge(const std::string& name) const;
  const LogHistogram* find_histogram(const std::string& name) const;

  std::size_t instrument_count() const {
    return counters_.size() + gauges_.size() + histograms_.size();
  }

  // Deterministic by-name merge: counters sum, gauges max, histograms
  // bucket-sum. Instruments present only in `other` are created.
  void merge(const MetricsRegistry& other);

  // {"counters":{...},"gauges":{...},"histograms":{...}} with keys in
  // sorted order; histograms export count/sum/min/max/mean/p50/p99 and
  // the non-empty buckets as [[floor,count],...].
  std::string to_json() const;

 private:
  // std::map for sorted, pointer-stable instruments; lookups happen at
  // registration time only, never per sample.
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<LogHistogram>> histograms_;
};

}  // namespace prr::obs
