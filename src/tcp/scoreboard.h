// Sender-side SACK scoreboard and loss detector: one record per
// transmitted segment between snd.una and snd.nxt, with the loss/retransmit
// state machinery of RFC 2018/3517/6675 plus the Linux extras the paper's
// baseline uses:
//   - FACK loss marking (threshold retransmission; holes below the
//     forward-most SACK are lost once in recovery),
//   - lost-retransmission detection (a retransmission is deemed lost when
//     data sent after it is SACKed),
//   - reordering detection (a segment presumed lost but never
//     retransmitted is later ACKed/SACKed), which raises dupthresh and
//     disables FACK.
// The scoreboard also computes pipe (RFC 3517 SetPipe) and DeliveredData,
// the per-ACK quantity PRR is built on.
//
// Ownership: the scoreboard decides *which* data is lost — it counts
// duplicate ACKs, keeps the reordering metric and the dupthresh it
// implies, applies the marking rule (mark_losses) and answers whether
// fast recovery should start (recovery_triggered). tcp::Sender decides
// *how much* to send: it reads the per-ACK AckOutcome and regulates the
// window. The sender only clears the dupack count when an episode ends
// (recovery exit, undo, RTO).
//
// Accounting is incremental: running byte/segment tallies are updated at
// the points records change state, so pipe(), total_sacked_bytes(),
// sacked_segment_count(), lost_segment_count() and any_sacked() are O(1)
// per call instead of O(window) scans. find() is a binary search over the
// start-sorted records_ ring. A randomized differential test
// (test_scoreboard_differential.cc) checks every tally against a brute-
// force recomputation after each operation.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "net/segment.h"
#include "sim/time.h"
#include "util/ring_queue.h"

namespace prr::tcp {

struct SegRecord {
  uint64_t start = 0;
  uint64_t end = 0;  // half-open
  bool sacked = false;
  bool lost = false;
  // True while the most recent retransmission of this record may still be
  // in the network (cleared when that retransmission is deemed lost).
  bool retransmitted = false;
  bool ever_retransmitted = false;
  // Last retransmit was sent during fast recovery (for the lost-fast-
  // retransmit statistic of Tables 8/10).
  bool last_retx_was_fast = false;
  int retrans_count = 0;
  // snd.nxt at the moment of the last retransmission: if data above this
  // gets SACKed while this record remains unSACKed, the retransmission
  // itself was lost.
  uint64_t retrans_marker = 0;
  sim::Time first_tx_time;
  sim::Time last_tx_time;

  uint64_t len() const { return end - start; }
};

struct AckOutcome {
  uint64_t newly_acked_bytes = 0;   // cumulative-ACK advance
  uint64_t newly_sacked_bytes = 0;  // newly SACKed above snd.una
  bool una_advanced = false;
  bool saw_dsack = false;
  std::optional<net::SackBlock> dsack_block;
  int lost_retransmits_detected = 0;
  int lost_fast_retransmits_detected = 0;
  // Largest reordering distance (in segments) observed on this ACK; 0 if
  // no reordering evidence.
  int reorder_distance_segs = 0;
  // Valid RTT sample per Karn's rule (never-retransmitted data only).
  std::optional<sim::Time> rtt_sample;
  // Last (re)transmission time of the newest cumulatively-ACKed record
  // that had been retransmitted — the reference point for Eifel
  // detection (RFC 3522): an echoed timestamp older than this proves the
  // ACK came from the original transmission.
  std::optional<sim::Time> acked_rexmit_tx_time;

  // DeliveredData as PRR defines it: delta(snd.una) + delta(SACKed).
  uint64_t delivered_bytes() const {
    return newly_acked_bytes + newly_sacked_bytes;
  }
};

class Scoreboard {
 public:
  // The starting dupthresh (RFC 5681); reordering raises it.
  static constexpr int kInitialDupthresh = 3;

  explicit Scoreboard(uint32_t mss) : mss_(mss) {}

  // Empties the scoreboard at `snd_una` and rewinds loss detection to
  // kInitialDupthresh and the configured FACK setting.
  void reset(uint64_t snd_una);
  // Connection start (and pool recycle): adopts the connection's MSS,
  // FACK setting and whether SACK was negotiated. Record/ring capacity is
  // kept.
  void reset(uint64_t snd_una, uint32_t mss, bool use_fack,
             bool sack_enabled) {
    mss_ = mss;
    use_fack_ = use_fack;
    sack_enabled_ = sack_enabled;
    reset(snd_una);
  }

  // Records a (re)transmission covering [start, end).
  void on_transmit(uint64_t start, uint64_t end, sim::Time now);
  // Marks an existing record as retransmitted. `snd_nxt` stamps the
  // lost-retransmit detection marker; `fast` tags fast vs RTO retransmits.
  void on_retransmit(uint64_t start, sim::Time now, uint64_t snd_nxt,
                     bool fast);

  // Processes an incoming ACK: advances snd.una, applies SACK blocks,
  // detects reordering and lost retransmissions, and updates the dupack
  // count, the reordering metric and dupthresh.
  AckOutcome on_ack(const net::Segment& ack, sim::Time now);

  // Applies the marking rule (FACK, or RFC 6675 IsLost once reordering
  // has switched FACK off) at the current dupthresh.
  void mark_losses() { update_loss_marks(dupthresh_, fack_enabled_); }
  // Fast-recovery entry test: dupthresh duplicate ACKs, or the first hole
  // is marked lost. Call after mark_losses().
  bool recovery_triggered() const {
    return dupacks_ >= dupthresh_ || first_hole_lost();
  }
  // The marking primitive behind mark_losses(), with explicit parameters;
  // returns segments newly marked lost.
  int update_loss_marks(int dupthresh, bool use_fack);

  // Duplicate ACKs since snd.una last advanced: an ACK with SACK news or a
  // DSACK, or, without SACK, a pure ACK that leaves snd.una in place
  // while data is outstanding. The sender clears it when an episode ends.
  int dupacks() const { return dupacks_; }
  void clear_dupacks() { dupacks_ = 0; }
  // clamp(largest reordering distance seen, configured dupthresh, 127).
  int dupthresh() const { return dupthresh_; }
  // FACK marking is on until reordering is seen (as in Linux).
  bool fack_enabled() const { return fack_enabled_; }
  bool reordering_seen() const { return reordering_seen_; }

  // Marks every non-SACKed record lost and forgets in-flight
  // retransmissions (RTO: everything is slated for retransmit).
  void on_timeout_mark_all_lost();

  // RFC 2018 §8 reneging recovery: discard every SACK mark so the data
  // becomes retransmittable again. Called before on_timeout_mark_all_lost
  // when the sender decides the receiver's SACK state can no longer be
  // trusted (the head of the window is SACKed yet snd.una never advanced
  // over it — impossible with an honest receiver). Returns bytes forgotten.
  uint64_t forget_sack_marks();

  // True when the record at snd.una is SACKed — with an honest receiver a
  // SACK covering rcv_nxt is impossible (it would have been cum-ACKed),
  // so this is the reneging/false-SACK wedge signal (Linux
  // tcp_check_sack_reneging checks exactly the head skb).
  bool head_sacked() const {
    return !records_.empty() && records_.front().sacked;
  }

  // Forces the first hole lost (early-retransmit entry, where the dupack
  // threshold was lowered below what the marking rules require).
  void mark_first_hole_lost();

  // F-RTO undo: a timeout proved spurious, so loss marks on segments that
  // were never retransmitted are reverted (the originals are in flight).
  void clear_unretransmitted_loss_marks();

  // RFC 3517 SetPipe over the scoreboard, in bytes. O(1): maintained
  // incrementally as (outstanding - sacked - lost) + retransmitted.
  uint64_t pipe() const {
    return (total_bytes_ - sacked_bytes_ - lost_bytes_) +
           retransmitted_in_flight_bytes_;
  }

  // Would the RFC 6675 / FACK entry condition fire (is the first
  // outstanding segment reconstructible as lost)?
  bool first_hole_lost() const;

  // Next record to retransmit: lowest lost && !retransmitted. nullptr if
  // none.
  const SegRecord* next_retransmit_candidate() const;

  // Highest-sequence record not yet SACKed (the tail-loss-probe target).
  const SegRecord* last_unsacked() const;

  bool has_records() const { return !records_.empty(); }
  bool any_sacked() const { return sacked_segs_ > 0; }
  uint64_t snd_una() const { return snd_una_; }
  uint64_t highest_sacked_end() const { return highest_sacked_end_; }
  uint64_t total_sacked_bytes() const { return sacked_bytes_; }
  // Number of SACKed segments at/above snd.una — the FACK "fackets out".
  int sacked_segment_count() const { return sacked_segs_; }
  // Segments marked lost and not (yet) SACKed.
  int lost_segment_count() const { return lost_segs_; }
  const util::RingQueue<SegRecord>& records() const { return records_; }

 private:
  SegRecord* find(uint64_t start);

  // All record state changes funnel through these so the running tallies
  // stay consistent (each is idempotent in the flag it sets/clears).
  void set_sacked(SegRecord& r);
  void clear_sacked(SegRecord& r);
  void set_lost(SegRecord& r);
  void clear_lost(SegRecord& r);
  void set_retransmitted(SegRecord& r);
  void clear_retransmitted(SegRecord& r);
  void account_remove(const SegRecord& r);

  uint32_t mss_;
  // Loss-detection configuration (set by the four-argument reset) and the
  // state on_ack derives from it.
  bool use_fack_ = true;
  bool sack_enabled_ = true;
  int dupthresh_ = kInitialDupthresh;
  int dupacks_ = 0;
  int reorder_metric_segs_ = 0;
  bool fack_enabled_ = true;
  bool reordering_seen_ = false;

  uint64_t snd_una_ = 0;
  uint64_t highest_sacked_end_ = 0;
  // Start-sorted, non-overlapping in-flight records. A ring (not a
  // deque) so the steady-state transmit/ack cycle — push at the tail,
  // pop at the head — recycles slots instead of churning deque blocks.
  util::RingQueue<SegRecord> records_;

  // Incremental tallies over records_. lost/retransmitted figures count
  // only non-SACKed records (the states pipe() distinguishes); a SACKed
  // record's stale lost/retransmitted flags are excluded on the spot.
  uint64_t total_bytes_ = 0;   // sum of len() over records_
  uint64_t sacked_bytes_ = 0;  // sacked
  uint64_t lost_bytes_ = 0;    // lost && !sacked
  uint64_t retransmitted_in_flight_bytes_ = 0;  // retransmitted && !sacked
  int sacked_segs_ = 0;
  int lost_segs_ = 0;
};

}  // namespace prr::tcp
