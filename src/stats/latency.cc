#include "stats/latency.h"

namespace prr::stats {

void LatencyTracker::add(ResponseRecord r) {
  ++total_;
  if (r.completed) {
    ++completed_;
    completed_with_retx_ += r.had_retransmit;
  }
  if (!bounded_) responses_.push_back(r);
}

void LatencyTracker::append(const LatencyTracker& other) {
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
    if (!r.completed) continue;
    if (r.bytes < min_bytes || r.bytes > max_bytes) continue;
    if (f == Filter::kWithRetransmit && !r.had_retransmit) continue;
    if (f == Filter::kWithoutRetransmit && r.had_retransmit) continue;
    s.add(r.latency_ms());
  }
  return s;
}

util::Samples LatencyTracker::rtts_taken(Filter f) const {
  util::Samples s;
  for (const auto& r : responses_) {
    if (!r.completed) continue;
    if (f == Filter::kWithRetransmit && !r.had_retransmit) continue;
    if (f == Filter::kWithoutRetransmit && r.had_retransmit) continue;
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
