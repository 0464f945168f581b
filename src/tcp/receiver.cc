#include "tcp/receiver.h"

#include <algorithm>
#include <utility>

namespace prr::tcp {

Receiver::Receiver(sim::Simulator& sim, Config config, SendAckFn send_ack)
    : sim_(sim),
      config_(config),
      send_ack_(std::move(send_ack)),
      delack_timer_(sim, [this] { send_ack_now(std::nullopt); }),
      renege_timer_(sim, [this] { renege(); }) {
  quickack_left_ = config_.quickack_segments;
  if (!config_.renege_at.is_zero()) {
    renege_timer_.start(config_.renege_at - sim_.now());
  }
}

void Receiver::reset(Config config) {
  config_ = config;
  delack_timer_.stop();  // stale after Simulator::reset; stop() clears
  renege_timer_.stop();
  rcv_nxt_ = 0;
  ooo_.clear();
  recency_counter_ = 0;
  unacked_segments_ = 0;
  ts_recent_ = 0;
  quickack_left_ = config_.quickack_segments;
  ece_pending_ = false;
  duplicate_segments_ = 0;
  reneged_bytes_ = 0;
  if (!config_.renege_at.is_zero()) {
    renege_timer_.start(config_.renege_at - sim_.now());
  }
}

void Receiver::renege() {
  // Memory pressure: the OOO queue is dropped wholesale. Subsequent ACKs
  // carry no SACK blocks for the discarded data, and retransmissions of
  // it are treated as fresh arrivals (covered() no longer claims them).
  for (const auto& b : ooo_) reneged_bytes_ += b.end - b.start;
  ooo_.clear();
  if (reneged_bytes_ > 0) send_ack_now(std::nullopt);
}

bool Receiver::covered(uint64_t start, uint64_t end) const {
  if (end <= rcv_nxt_) return true;
  for (const auto& b : ooo_)
    if (b.start <= start && end <= b.end) return true;
  return false;
}

void Receiver::merge_ooo(uint64_t start, uint64_t end) {
  // Insert [start,end) and merge overlapping/adjacent blocks; the merged
  // block takes the newest recency so SACK ordering reflects arrivals.
  const uint64_t rec = ++recency_counter_;
  uint64_t s = start, e = end;
  for (auto it = ooo_.begin(); it != ooo_.end();) {
    if (it->end < s || it->start > e) {
      ++it;
      continue;
    }
    s = std::min(s, it->start);
    e = std::max(e, it->end);
    it = ooo_.erase(it);
  }
  ooo_.push_back({s, e, rec});
}

void Receiver::on_data(const net::Segment& seg) {
  if (config_.ecn) {
    // RFC 3168: latch ECE on CE-marked data; clear it when the sender
    // confirms its reduction with CWR.
    if (seg.ce) ece_pending_ = true;
    if (seg.cwr) ece_pending_ = false;
  }
  // RFC 7323: update TS.Recent from segments that are in order (fill or
  // extend the left edge of the window).
  if (config_.timestamps && seg.has_ts && seg.seq <= rcv_nxt_) {
    ts_recent_ = seg.tsval;
  }
  const uint64_t start = seg.seq;
  const uint64_t end = seg.seq + seg.len;

  // Duplicate: everything already received -> immediate ACK with DSACK.
  if (covered(start, end)) {
    ++duplicate_segments_;
    std::optional<net::SackBlock> dsack;
    if (config_.dsack_enabled && config_.sack_enabled) {
      dsack = net::SackBlock{start, end};
    }
    send_ack_now(dsack);
    return;
  }

  const bool was_in_order = start <= rcv_nxt_;
  bool filled_hole = false;
  if (was_in_order) {
    rcv_nxt_ = std::max(rcv_nxt_, end);
    // Pull any out-of-order blocks the advance now reaches.
    bool merged = true;
    while (merged) {
      merged = false;
      for (auto it = ooo_.begin(); it != ooo_.end(); ++it) {
        if (it->start <= rcv_nxt_) {
          rcv_nxt_ = std::max(rcv_nxt_, it->end);
          ooo_.erase(it);
          merged = true;
          filled_hole = true;
          break;
        }
      }
    }
  } else {
    merge_ooo(start, end);
  }

  const bool have_holes = !ooo_.empty();
  if (!was_in_order || have_holes || filled_hole) {
    // Out-of-order data or still-missing holes: ACK immediately
    // (generates the dupack/SACK stream fast recovery is clocked by).
    send_ack_now(std::nullopt);
    return;
  }
  // In-order: quickack mode ACKs immediately; otherwise delayed ACK,
  // one per `ack_every` segments or on timeout.
  if (quickack_left_ > 0) {
    --quickack_left_;
    send_ack_now(std::nullopt);
    return;
  }
  if (++unacked_segments_ >= config_.ack_every) {
    send_ack_now(std::nullopt);
  } else if (!delack_timer_.pending()) {
    delack_timer_.start(config_.delack_timeout);
  }
}

void Receiver::send_ack_now(std::optional<net::SackBlock> dsack) {
  delack_timer_.stop();
  unacked_segments_ = 0;

  net::Segment ack;
  ack.is_ack = true;
  ack.ack = rcv_nxt_;
  ack.rwnd = config_.rwnd;
  ack.tx_time = sim_.now();
  if (config_.timestamps) {
    ack.has_ts = true;
    ack.tsval = static_cast<uint32_t>(sim_.now().ms());
    ack.tsecr = ts_recent_;
  }
  if (config_.ecn) ack.ece = ece_pending_;
  if (config_.sack_enabled) {
    ack.dsack = dsack;
    // Up to max_sack_blocks OOO intervals, most recently updated first:
    // a top-k selection over ooo_ (k <= 4, recencies unique), kept
    // allocation-free — this runs on every ACK of every lossy window.
    const int k = std::min<int>(config_.max_sack_blocks, 4);
    const OooBlock* top[4] = {nullptr, nullptr, nullptr, nullptr};
    int filled = 0;
    for (const OooBlock& b : ooo_) {
      int i = filled;
      while (i > 0 && top[i - 1]->recency < b.recency) --i;
      if (i >= k) continue;
      if (filled < k) ++filled;
      for (int j = filled - 1; j > i; --j) top[j] = top[j - 1];
      top[i] = &b;
    }
    for (int i = 0; i < filled; ++i) {
      ack.sacks.push_back({top[i]->start, top[i]->end});
    }
  }
  send_ack_(std::move(ack));
}

}  // namespace prr::tcp
