// Per-HTTP-response TCP latency tracking, using the paper's definition:
// from when the server sends the first byte of the response until it
// receives the ACK for the last byte (§1). Also records whether the
// response experienced any retransmission and the path's ideal (min) RTT,
// which Figure 1 uses as the ideal response time.
//
// Two storage modes:
//  - unbounded (default): every ResponseRecord is kept, so exact
//    quantiles over arbitrary filters are available (the table benches).
//  - bounded: O(1) counters only — the form the million-connection
//    streaming sweeps use, where keeping a ~48-byte record per response
//    would make memory grow with N. Counters are maintained in BOTH
//    modes, so count() and fraction_with_retransmit() are
//    mode-independent and shard merges stay bit-identical at any worker
//    count (counter sums are associative).
#pragma once

#include <cstdint>
#include <vector>

#include "sim/time.h"
#include "util/quantiles.h"

namespace prr::stats {

struct ResponseRecord {
  uint64_t bytes = 0;
  sim::Time first_byte_sent;
  sim::Time last_byte_acked;
  bool had_retransmit = false;
  bool completed = false;
  double path_rtt_ms = 0;  // configured two-way propagation delay

  double latency_ms() const {
    return (last_byte_acked - first_byte_sent).ms_d();
  }
  double rtts_taken() const {
    return path_rtt_ms > 0 ? latency_ms() / path_rtt_ms : 0;
  }
};

class LatencyTracker {
 public:
  void add(ResponseRecord r);
  void append(const LatencyTracker& other);
  // Deterministic shard merge: merged in connection-id order by the
  // parallel harness, reproducing the serial response sequence exactly.
  void merge(const LatencyTracker& other) { append(other); }
  const std::vector<ResponseRecord>& responses() const { return responses_; }

  // Switches to bounded (counters only) storage. Only valid
  // before the first add(); records already kept are not re-folded.
  void set_bounded(bool bounded) { bounded_ = bounded; }

  // Total responses observed, in either mode (== responses().size() in
  // unbounded mode). The sweep fingerprints hash this, not the vector.
  uint64_t count() const { return total_; }
  uint64_t completed_count() const { return completed_; }

  enum class Filter { kAll, kWithRetransmit, kWithoutRetransmit };

  // Exact-sample views; empty in bounded mode.
  util::Samples latency_ms(Filter f = Filter::kAll,
                           uint64_t min_bytes = 0,
                           uint64_t max_bytes = UINT64_MAX) const;
  util::Samples rtts_taken(Filter f = Filter::kAll) const;
  double fraction_with_retransmit() const;

 private:
  std::vector<ResponseRecord> responses_;
  bool bounded_ = false;
  uint64_t total_ = 0;
  uint64_t completed_ = 0;
  uint64_t completed_with_retx_ = 0;
};

}  // namespace prr::stats
