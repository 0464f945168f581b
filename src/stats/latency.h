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
//    streaming sweeps use, where keeping a 24-byte record per response
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

// One response's sample, packed to 24 bytes because an unbounded sweep
// keeps one per response: the two timestamps as int64 ns, the byte count
// in the low 30 bits of a uint32 whose top two bits are the completed and
// had-retransmit flags, and the path RTT as uint32 ns (up to ~4.29 s; the
// largest in use is the video workload's 4.0 s clamp). A setter given a
// value that does not fit throws std::out_of_range; nothing is truncated.
class ResponseRecord {
 public:
  static constexpr uint64_t kMaxBytes = (uint64_t{1} << 30) - 1;
  static constexpr sim::Time kMaxPathRtt = sim::Time::nanoseconds(UINT32_MAX);

  uint64_t bytes() const { return bytes_and_flags_ & kMaxBytes; }
  sim::Time first_byte_sent() const { return first_byte_sent_; }
  sim::Time last_byte_acked() const { return last_byte_acked_; }
  bool completed() const { return (bytes_and_flags_ & kCompleted) != 0; }
  bool had_retransmit() const {
    return (bytes_and_flags_ & kHadRetransmit) != 0;
  }
  sim::Time path_rtt() const { return sim::Time::nanoseconds(path_rtt_ns_); }
  // The configured two-way propagation delay, in ms.
  double path_rtt_ms() const { return path_rtt().ms_d(); }

  void set_bytes(uint64_t bytes);
  void set_first_byte_sent(sim::Time t) { first_byte_sent_ = t; }
  void set_last_byte_acked(sim::Time t) { last_byte_acked_ = t; }
  void set_completed(bool v) { set_flag(kCompleted, v); }
  void set_had_retransmit(bool v) { set_flag(kHadRetransmit, v); }
  void set_path_rtt(sim::Time rtt);

  double latency_ms() const {
    return (last_byte_acked_ - first_byte_sent_).ms_d();
  }
  double rtts_taken() const {
    const double rtt = path_rtt_ms();
    return rtt > 0 ? latency_ms() / rtt : 0;
  }

 private:
  static constexpr uint32_t kCompleted = uint32_t{1} << 31;
  static constexpr uint32_t kHadRetransmit = uint32_t{1} << 30;

  void set_flag(uint32_t flag, bool v) {
    bytes_and_flags_ = v ? bytes_and_flags_ | flag : bytes_and_flags_ & ~flag;
  }

  sim::Time first_byte_sent_;
  sim::Time last_byte_acked_;
  uint32_t bytes_and_flags_ = 0;
  uint32_t path_rtt_ns_ = 0;
};
static_assert(sizeof(ResponseRecord) == 24);

class LatencyTracker {
 public:
  void add(const ResponseRecord& r);
  // Deterministic shard merge: merged in connection-id order by the
  // parallel harness, reproducing the serial response sequence exactly.
  // Both trackers must be in the same storage mode (std::logic_error
  // otherwise): an unbounded tracker fed a bounded one's counters would
  // count responses it does not hold.
  void merge(const LatencyTracker& other);
  const std::vector<ResponseRecord>& responses() const { return responses_; }

  // Switches to bounded (counters only) storage. Throws std::logic_error
  // once a response has been added: records already kept are not
  // re-folded.
  void set_bounded(bool bounded);

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
