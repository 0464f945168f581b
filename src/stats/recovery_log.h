// Per-recovery-event instrumentation: everything Tables 5, 6, 7, Fig 5 and
// Table 10 need. Registered as a sender listener, the log folds each
// episode's close event into one row.
//
// Like LatencyTracker, the log has an unbounded mode (every event kept,
// exact quantiles) and a bounded mode for streaming sweeps (counters
// only, O(1) memory per arm). The classification
// counters and the bytes_sent_during() total are maintained in both
// modes, so count(), bytes_sent_during() and the fraction_* accessors
// report identical values either way.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/time.h"
#include "tcp/sender_events.h"
#include "util/quantiles.h"

namespace prr::stats {

struct RecoveryEvent {
  sim::Time start;
  sim::Time end;
  // All window quantities in bytes at the named instant.
  uint64_t pipe_at_start = 0;
  uint64_t ssthresh = 0;
  uint64_t cwnd_at_start = 0;
  uint64_t cwnd_at_exit = 0;       // just prior to exit adjustment
  uint64_t cwnd_after_exit = 0;    // after the exit adjustment
  uint64_t pipe_at_exit = 0;
  uint32_t mss = 1;
  uint64_t retransmits = 0;        // segments retransmitted during event
  uint64_t bytes_sent_during = 0;  // all data sent while in recovery
  uint64_t max_burst_segments = 0; // largest single-ACK send burst
  bool interrupted_by_timeout = false;
  bool completed = false;          // snd.una reached the recovery point
  bool slow_start_after = false;   // exited with cwnd < ssthresh

  sim::Time duration() const { return end - start; }
  bool operator==(const RecoveryEvent&) const = default;
  // Segment-denominated views (paper tables are in segments).
  double pipe_minus_ssthresh_segs() const {
    return (static_cast<double>(pipe_at_start) -
            static_cast<double>(ssthresh)) / mss;
  }
  double cwnd_minus_ssthresh_at_exit_segs() const {
    return (static_cast<double>(cwnd_at_exit) -
            static_cast<double>(ssthresh)) / mss;
  }
  double cwnd_after_exit_segs() const {
    return static_cast<double>(cwnd_after_exit) / mss;
  }
};

class RecoveryLog : public tcp::SenderEvents {
 public:
  void add(RecoveryEvent e);
  // One row per closed episode (undo counts as completed). An episode
  // the run cut off never closes, so it has no row.
  void on_recovery_closed(const tcp::RecoveryEntry& entry,
                          const tcp::RecoveryClose& close) override;
  // Deterministic shard merge: callers merge shards in connection-id
  // order, so the concatenated event list is byte-identical to a serial
  // run (events within a shard are already in emission order). Both logs
  // must be in the same storage mode (std::logic_error otherwise).
  void merge(const RecoveryLog& other);
  const std::vector<RecoveryEvent>& events() const { return events_; }
  // Total events observed in either mode (== events().size() when
  // unbounded).
  std::size_t count() const { return total_; }
  // Sum of RecoveryEvent::bytes_sent_during over every event.
  uint64_t bytes_sent_during() const { return bytes_sent_during_; }

  // Switches to bounded (counters only) storage. Throws
  // std::logic_error once an event has been added.
  void set_bounded(bool bounded);

  // Table 5: fraction of events starting in each PRR mode.
  double fraction_start_below_ssthresh() const;   // pipe < ssthresh
  double fraction_start_equal_ssthresh() const;
  double fraction_start_above_ssthresh() const;   // pipe > ssthresh

  // Exact-sample views; empty in bounded mode.
  util::Samples pipe_minus_ssthresh_segs() const;       // Table 5 quantiles
  util::Samples cwnd_minus_ssthresh_exit_segs() const;  // Table 6
  util::Samples cwnd_after_exit_segs() const;           // Table 7
  util::Samples recovery_time_ms() const;               // Fig 5
  util::Samples burst_sizes() const;

  double fraction_slow_start_after() const;  // Table 10 row
  double fraction_with_timeout() const;

 private:
  std::vector<RecoveryEvent> events_;
  bool bounded_ = false;
  uint64_t total_ = 0;
  uint64_t below_ = 0;
  uint64_t equal_ = 0;
  uint64_t above_ = 0;
  uint64_t completed_ = 0;
  uint64_t slow_start_after_ = 0;
  uint64_t timeout_ = 0;
  uint64_t bytes_sent_during_ = 0;
};

}  // namespace prr::stats
