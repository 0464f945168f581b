#include "tcp/scoreboard.h"

#include <algorithm>
#include <cassert>

namespace prr::tcp {

// Upper bound on the reordering-raised dupthresh.
constexpr int kMaxDupthresh = 127;

// --- incremental accounting -------------------------------------------
// Every flag flip goes through one of these helpers; each is idempotent,
// so call sites never need to pre-check the flag to keep tallies right.

void Scoreboard::set_sacked(SegRecord& r) {
  if (r.sacked) return;
  sacked_bytes_ += r.len();
  ++sacked_segs_;
  if (r.lost) {
    lost_bytes_ -= r.len();
    --lost_segs_;
  }
  if (r.retransmitted) retransmitted_in_flight_bytes_ -= r.len();
  r.sacked = true;
}

void Scoreboard::clear_sacked(SegRecord& r) {
  if (!r.sacked) return;
  sacked_bytes_ -= r.len();
  --sacked_segs_;
  // Stale lost/retransmitted flags re-enter the pipe tallies they were
  // excluded from while the record counted as SACKed.
  if (r.lost) {
    lost_bytes_ += r.len();
    ++lost_segs_;
  }
  if (r.retransmitted) retransmitted_in_flight_bytes_ += r.len();
  r.sacked = false;
}

void Scoreboard::set_lost(SegRecord& r) {
  if (r.lost) return;
  if (!r.sacked) {
    lost_bytes_ += r.len();
    ++lost_segs_;
  }
  r.lost = true;
}

void Scoreboard::clear_lost(SegRecord& r) {
  if (!r.lost) return;
  if (!r.sacked) {
    lost_bytes_ -= r.len();
    --lost_segs_;
  }
  r.lost = false;
}

void Scoreboard::set_retransmitted(SegRecord& r) {
  if (!r.retransmitted && !r.sacked) {
    retransmitted_in_flight_bytes_ += r.len();
  }
  r.retransmitted = true;
}

void Scoreboard::clear_retransmitted(SegRecord& r) {
  if (r.retransmitted && !r.sacked) {
    retransmitted_in_flight_bytes_ -= r.len();
  }
  r.retransmitted = false;
}

void Scoreboard::account_remove(const SegRecord& r) {
  total_bytes_ -= r.len();
  if (r.sacked) {
    sacked_bytes_ -= r.len();
    --sacked_segs_;
    return;
  }
  if (r.lost) {
    lost_bytes_ -= r.len();
    --lost_segs_;
  }
  if (r.retransmitted) retransmitted_in_flight_bytes_ -= r.len();
}

// ----------------------------------------------------------------------

void Scoreboard::reset(uint64_t snd_una) {
  snd_una_ = snd_una;
  highest_sacked_end_ = snd_una;
  records_.clear();
  total_bytes_ = 0;
  sacked_bytes_ = 0;
  lost_bytes_ = 0;
  retransmitted_in_flight_bytes_ = 0;
  sacked_segs_ = 0;
  lost_segs_ = 0;
  dupthresh_ = kInitialDupthresh;
  dupacks_ = 0;
  reorder_metric_segs_ = 0;
  fack_enabled_ = use_fack_;
  reordering_seen_ = false;
}

void Scoreboard::on_transmit(uint64_t start, uint64_t end, sim::Time now) {
  assert(start >= snd_una_);
  assert(records_.empty() || start >= records_.back().end);
  SegRecord r;
  r.start = start;
  r.end = end;
  r.first_tx_time = now;
  r.last_tx_time = now;
  total_bytes_ += r.len();
  records_.push_back(r);
}

SegRecord* Scoreboard::find(uint64_t start) {
  // records_ is sorted by start and non-overlapping: binary-search the
  // last record starting at or below `start`, then check containment.
  auto it = std::upper_bound(
      records_.begin(), records_.end(), start,
      [](uint64_t v, const SegRecord& r) { return v < r.start; });
  if (it == records_.begin()) return nullptr;
  --it;
  return (it->start <= start && start < it->end) ? &*it : nullptr;
}

void Scoreboard::on_retransmit(uint64_t start, sim::Time now,
                               uint64_t snd_nxt, bool fast) {
  SegRecord* r = find(start);
  assert(r != nullptr);
  set_retransmitted(*r);
  r->ever_retransmitted = true;
  r->last_retx_was_fast = fast;
  ++r->retrans_count;
  r->retrans_marker = snd_nxt;
  r->last_tx_time = now;
}

AckOutcome Scoreboard::on_ack(const net::Segment& ack, sim::Time now) {
  AckOutcome out;
  // SACK frontier before this ACK: deliveries of never-retransmitted data
  // from below it are reordering evidence (the original arrived after
  // higher data did).
  const uint64_t prior_fack = highest_sacked_end_;

  if (ack.dsack) {
    out.saw_dsack = true;
    out.dsack_block = ack.dsack;
  }

  // 1. Cumulative advance: pop fully-ACKed records.
  if (ack.ack > snd_una_) {
    out.una_advanced = true;
    out.newly_acked_bytes = ack.ack - snd_una_;
    while (!records_.empty() && records_.front().end <= ack.ack) {
      const SegRecord& r = records_.front();
      if (!r.sacked) {
        if (!r.ever_retransmitted && prior_fack > r.end) {
          const int dist =
              static_cast<int>((prior_fack - r.start) / mss_);
          out.reorder_distance_segs =
              std::max(out.reorder_distance_segs, std::max(dist, 1));
        }
        // Already-SACKed bytes were counted as delivered when SACKed; a
        // cumulative ACK over them must not double-count.
      } else {
        out.newly_acked_bytes -= r.len();
      }
      if (!r.ever_retransmitted) {
        // Karn: sample only never-retransmitted data; use the newest.
        out.rtt_sample = now - r.last_tx_time;
      } else {
        out.acked_rexmit_tx_time = r.last_tx_time;
      }
      account_remove(r);
      records_.pop_front();
    }
    // Partial-record coverage cannot happen (ACKs land on segment
    // boundaries in this model), but guard anyway.
    snd_una_ = ack.ack;
    if (highest_sacked_end_ < snd_una_) highest_sacked_end_ = snd_una_;
  }

  // 2. SACK blocks: mark newly-SACKed records.
  // Track the highest start among records SACKed by *this* ACK: only
  // data first sent after a retransmission (seq >= the snd.nxt recorded
  // at retransmit time) can prove that retransmission lost.
  uint64_t max_newly_sacked_start = 0;
  bool any_newly_sacked = false;
  for (const auto& blk : ack.sacks) {
    for (auto& r : records_) {
      if (r.sacked) continue;
      if (blk.start <= r.start && r.end <= blk.end) {
        set_sacked(r);
        out.newly_sacked_bytes += r.len();
        any_newly_sacked = true;
        max_newly_sacked_start = std::max(max_newly_sacked_start, r.start);
        highest_sacked_end_ = std::max(highest_sacked_end_, r.end);
        if (!r.ever_retransmitted && prior_fack > r.end) {
          const int dist =
              static_cast<int>((prior_fack - r.start) / mss_);
          out.reorder_distance_segs =
              std::max(out.reorder_distance_segs, std::max(dist, 1));
          clear_lost(r);  // it clearly is not lost
        }
      }
    }
  }

  // 3. Lost-retransmission detection (Linux tcp_mark_lost_retrans): a
  // still-unSACKed record whose retransmission predates data that was
  // *first transmitted after it* and has now been SACKed was lost again.
  // Sequence test: only bytes at/above the snd.nxt recorded when the
  // retransmission went out can have been first-sent after it.
  if (any_newly_sacked) {
    for (auto& r : records_) {
      if (r.sacked || !r.retransmitted) continue;
      if (r.retrans_marker > 0 &&
          max_newly_sacked_start >= r.retrans_marker) {
        clear_retransmitted(r);  // that copy is gone; eligible again
        set_lost(r);
        ++out.lost_retransmits_detected;
        if (r.last_retx_was_fast) ++out.lost_fast_retransmits_detected;
      }
    }
  }

  // 4. Duplicate-ACK count (reset by any cumulative advance). Data is
  // outstanding while the last record (which ends at snd.nxt) lies above
  // snd.una.
  if (out.una_advanced) {
    dupacks_ = 0;
  } else if (out.newly_sacked_bytes > 0 || out.saw_dsack ||
             (!sack_enabled_ && ack.ack == snd_una_ && ack.len == 0 &&
              !records_.empty() && records_.back().end > snd_una_)) {
    ++dupacks_;
  }

  // 5. Reordering raises dupthresh to the largest distance seen and, as
  // in Linux, switches FACK marking off for the rest of the connection.
  if (out.reorder_distance_segs > 0) {
    reordering_seen_ = true;
    reorder_metric_segs_ =
        std::max(reorder_metric_segs_, out.reorder_distance_segs);
    dupthresh_ = std::clamp(reorder_metric_segs_, kInitialDupthresh,
                            kMaxDupthresh);
    fack_enabled_ = false;
  }

  return out;
}

int Scoreboard::update_loss_marks(int dupthresh, bool use_fack) {
  int newly_lost = 0;
  const uint64_t fack = highest_sacked_end_;
  if (use_fack) {
    // Linux FACK (tcp_update_scoreboard / tcp_mark_head_lost): with
    // fackets_out segments between snd.una and the forward-most SACK,
    // mark the unSACKed segments among the first fackets_out - dupthresh
    // of them lost. Marking is progressive: each new SACK pushes the
    // frontier and exposes one more hole.
    if (fack <= snd_una_) return 0;
    const uint64_t fackets =
        (fack - snd_una_ + mss_ - 1) / mss_;
    if (fackets <= static_cast<uint64_t>(dupthresh)) return 0;
    const uint64_t mark_below =
        snd_una_ + (fackets - static_cast<uint64_t>(dupthresh)) * mss_;
    for (auto& r : records_) {
      if (r.start >= mark_below) break;
      if (r.sacked || r.lost) continue;
      set_lost(r);
      ++newly_lost;
    }
    return newly_lost;
  }
  // RFC 6675 IsLost: more than (dupthresh-1)*SMSS SACKed bytes above the
  // record. One forward pass: SACKed bytes above r = total SACKed minus
  // the SACKed bytes accumulated below it (records_ is start-sorted).
  const uint64_t thresh = static_cast<uint64_t>(dupthresh - 1) * mss_;
  uint64_t sacked_below = 0;
  for (auto& r : records_) {
    if (r.sacked) {
      sacked_below += r.len();
      continue;
    }
    if (r.lost) continue;
    if (sacked_bytes_ - sacked_below > thresh) {
      set_lost(r);
      ++newly_lost;
    }
  }
  return newly_lost;
}

void Scoreboard::on_timeout_mark_all_lost() {
  for (auto& r : records_) {
    if (r.sacked) continue;
    set_lost(r);
    clear_retransmitted(r);  // everything is slated for retransmission
  }
}

uint64_t Scoreboard::forget_sack_marks() {
  uint64_t forgotten = 0;
  for (auto& r : records_) {
    if (!r.sacked) continue;
    forgotten += r.len();
    clear_sacked(r);
  }
  // The FACK frontier was built from marks we no longer believe.
  highest_sacked_end_ = snd_una_;
  return forgotten;
}

void Scoreboard::clear_unretransmitted_loss_marks() {
  for (auto& r : records_) {
    if (r.lost && !r.retransmitted) clear_lost(r);
  }
}

void Scoreboard::mark_first_hole_lost() {
  for (auto& r : records_) {
    if (r.sacked) continue;
    set_lost(r);
    return;
  }
}

bool Scoreboard::first_hole_lost() const {
  for (const auto& r : records_) {
    if (r.sacked) continue;
    return r.lost;
  }
  return false;
}

const SegRecord* Scoreboard::next_retransmit_candidate() const {
  for (const auto& r : records_) {
    if (r.lost && !r.sacked && !r.retransmitted) return &r;
  }
  return nullptr;
}

const SegRecord* Scoreboard::last_unsacked() const {
  for (auto it = records_.rbegin(); it != records_.rend(); ++it) {
    if (!it->sacked) return &*it;
  }
  return nullptr;
}

}  // namespace prr::tcp
