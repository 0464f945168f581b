#include "stats/recovery_log.h"

#include <stdexcept>

namespace prr::stats {

namespace {
// The paper's Table 5 works in whole segments; compare pipe and ssthresh
// in segment units so "equal" means within the same segment count.
int seg_diff(const RecoveryEvent& e) {
  const int64_t pipe_segs =
      static_cast<int64_t>(e.pipe_at_start / e.mss);
  const int64_t ss_segs = static_cast<int64_t>(e.ssthresh / e.mss);
  return static_cast<int>(pipe_segs - ss_segs);
}
}  // namespace

void RecoveryLog::add(RecoveryEvent e) {
  ++total_;
  const int d = seg_diff(e);
  below_ += d < 0;
  equal_ += d == 0;
  above_ += d > 0;
  if (e.completed) {
    ++completed_;
    slow_start_after_ += e.slow_start_after;
  }
  timeout_ += e.interrupted_by_timeout;
  bytes_sent_during_ += e.bytes_sent_during;
  if (!bounded_) events_.push_back(e);
}

void RecoveryLog::on_recovery_closed(const tcp::RecoveryEntry& entry,
                                     const tcp::RecoveryClose& close) {
  // An RTO ends the episode with no exit windows.
  const bool completed = close.how != tcp::RecoveryExit::kRto;
  add({.start = entry.start, .end = close.end, .pipe_at_start = entry.pipe,
       .ssthresh = entry.ssthresh, .cwnd_at_start = entry.prior_cwnd,
       .cwnd_at_exit = completed ? close.cwnd_at_exit : 0,
       .cwnd_after_exit = completed ? close.cwnd_after_exit : 0,
       .pipe_at_exit = completed ? close.pipe_at_exit : 0,
       .mss = entry.mss, .retransmits = close.retransmits,
       .bytes_sent_during = close.bytes_sent,
       .max_burst_segments = close.max_burst_segments,
       .interrupted_by_timeout = !completed, .completed = completed,
       .slow_start_after = close.cwnd_after_exit < close.ssthresh});
}

void RecoveryLog::set_bounded(bool bounded) {
  if (total_ > 0) {
    throw std::logic_error("RecoveryLog::set_bounded after the first add()");
  }
  bounded_ = bounded;
}

void RecoveryLog::merge(const RecoveryLog& other) {
  if (bounded_ != other.bounded_) {
    throw std::logic_error(
        "RecoveryLog::merge between bounded and unbounded logs");
  }
  total_ += other.total_;
  below_ += other.below_;
  equal_ += other.equal_;
  above_ += other.above_;
  completed_ += other.completed_;
  slow_start_after_ += other.slow_start_after_;
  timeout_ += other.timeout_;
  bytes_sent_during_ += other.bytes_sent_during_;
  if (!bounded_)
    events_.insert(events_.end(), other.events_.begin(), other.events_.end());
}

double RecoveryLog::fraction_start_below_ssthresh() const {
  return total_ == 0 ? 0
                     : static_cast<double>(below_) /
                           static_cast<double>(total_);
}

double RecoveryLog::fraction_start_equal_ssthresh() const {
  return total_ == 0 ? 0
                     : static_cast<double>(equal_) /
                           static_cast<double>(total_);
}

double RecoveryLog::fraction_start_above_ssthresh() const {
  return total_ == 0 ? 0
                     : static_cast<double>(above_) /
                           static_cast<double>(total_);
}

util::Samples RecoveryLog::pipe_minus_ssthresh_segs() const {
  util::Samples s;
  for (const auto& e : events_) s.add(e.pipe_minus_ssthresh_segs());
  return s;
}

util::Samples RecoveryLog::cwnd_minus_ssthresh_exit_segs() const {
  util::Samples s;
  for (const auto& e : events_)
    if (e.completed) s.add(e.cwnd_minus_ssthresh_at_exit_segs());
  return s;
}

util::Samples RecoveryLog::cwnd_after_exit_segs() const {
  util::Samples s;
  for (const auto& e : events_)
    if (e.completed) s.add(e.cwnd_after_exit_segs());
  return s;
}

util::Samples RecoveryLog::recovery_time_ms() const {
  util::Samples s;
  for (const auto& e : events_) s.add(e.duration().ms_d());
  return s;
}

util::Samples RecoveryLog::burst_sizes() const {
  util::Samples s;
  for (const auto& e : events_)
    s.add(static_cast<double>(e.max_burst_segments));
  return s;
}

double RecoveryLog::fraction_slow_start_after() const {
  return completed_ == 0 ? 0
                         : static_cast<double>(slow_start_after_) /
                               static_cast<double>(completed_);
}

double RecoveryLog::fraction_with_timeout() const {
  return total_ == 0 ? 0
                     : static_cast<double>(timeout_) /
                           static_cast<double>(total_);
}

}  // namespace prr::stats
