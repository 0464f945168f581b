#include "stats/latency.h"

#include <stdexcept>
#include <string>

namespace prr::stats {

void ResponseRecord::set_bytes(uint64_t bytes) {
  if (bytes > kMaxBytes) {
    throw std::out_of_range("response of " + std::to_string(bytes) +
                            " bytes exceeds the record's 2^30-1 limit");
  }
  bytes_and_flags_ = (bytes_and_flags_ & ~static_cast<uint32_t>(kMaxBytes)) |
                     static_cast<uint32_t>(bytes);
}

void ResponseRecord::set_path_rtt(sim::Time rtt) {
  if (rtt.ns() < 0 || rtt > kMaxPathRtt) {
    throw std::out_of_range("path RTT of " + std::to_string(rtt.ns()) +
                            " ns does not fit the record's uint32 ns");
  }
  path_rtt_ns_ = static_cast<uint32_t>(rtt.ns());
}

void LatencyTracker::add(const ResponseRecord& r) {
  ++total_;
  if (r.completed()) {
    ++completed_;
    completed_with_retx_ += r.had_retransmit();
  }
  if (!bounded_) responses_.push_back(r);
}

void LatencyTracker::set_bounded(bool bounded) {
  if (total_ > 0) {
    throw std::logic_error(
        "LatencyTracker::set_bounded after the first add()");
  }
  bounded_ = bounded;
}

void LatencyTracker::merge(const LatencyTracker& other) {
  if (bounded_ != other.bounded_) {
    throw std::logic_error(
        "LatencyTracker::merge between bounded and unbounded trackers");
  }
  total_ += other.total_;
  completed_ += other.completed_;
  completed_with_retx_ += other.completed_with_retx_;
  if (!bounded_)
    responses_.insert(responses_.end(), other.responses_.begin(),
                      other.responses_.end());
}

util::Samples LatencyTracker::latency_ms(Filter f, uint64_t min_bytes,
                                         uint64_t max_bytes) const {
  util::Samples s;
  for (const auto& r : responses_) {
    if (!r.completed()) continue;
    if (r.bytes() < min_bytes || r.bytes() > max_bytes) continue;
    if (f == Filter::kWithRetransmit && !r.had_retransmit()) continue;
    if (f == Filter::kWithoutRetransmit && r.had_retransmit()) continue;
    s.add(r.latency_ms());
  }
  return s;
}

util::Samples LatencyTracker::rtts_taken(Filter f) const {
  util::Samples s;
  for (const auto& r : responses_) {
    if (!r.completed()) continue;
    if (f == Filter::kWithRetransmit && !r.had_retransmit()) continue;
    if (f == Filter::kWithoutRetransmit && r.had_retransmit()) continue;
    s.add(r.rtts_taken());
  }
  return s;
}

double LatencyTracker::fraction_with_retransmit() const {
  // Counter-based so the answer is identical in bounded and unbounded
  // modes (the counters count exactly what the vector loop counted).
  return completed_ == 0 ? 0
                         : static_cast<double>(completed_with_retx_) /
                               static_cast<double>(completed_);
}

}  // namespace prr::stats
