// TCP receiver: in-order delivery tracking, out-of-order interval store,
// SACK block generation (RFC 2018: up to 3 blocks, most recent first),
// DSACK reports for duplicate segments (RFC 2883), and delayed ACKs with
// immediate ACKs on out-of-order or hole-filling data.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "net/segment.h"
#include "sim/simulator.h"

namespace prr::tcp {

class Receiver {
 public:
  using SendAckFn = std::function<void(net::Segment&&)>;

  struct Config {
    bool sack_enabled = true;
    bool dsack_enabled = true;
    bool timestamps = false;  // RFC 7323 (12% of paper's connections)
    bool ecn = false;         // RFC 3168 ECN echo
    int ack_every = 2;  // delayed ACK: one ACK per this many segments
    // Linux-style quickack: ACK each of the first N in-order segments
    // immediately (helps the sender's slow start clock); 0 disables.
    int quickack_segments = 0;
    sim::Time delack_timeout = sim::Time::milliseconds(40);
    uint64_t rwnd = 16 * 1024 * 1024;
    int max_sack_blocks = 3;  // hard wire cap of 4 (RFC 2018 option space)
    // Stateful SACK reneging (RFC 2018 §8 allows it): at this time the
    // receiver discards its entire out-of-order queue — data it already
    // SACKed — and stops reporting it. Previously-SACKed holes must then
    // be retransmitted by the sender or the connection wedges. Zero = off.
    sim::Time renege_at = sim::Time::zero();
  };

  Receiver(sim::Simulator& sim, Config config, SendAckFn send_ack);

  // Pool-recycle: returns the receiver to a freshly-constructed state
  // under a new config, keeping the ACK callback and OOO-store capacity.
  // Precondition: the owning Simulator has been reset (timers are stale).
  void reset(Config config);

  void on_data(const net::Segment& seg);

  uint64_t rcv_nxt() const { return rcv_nxt_; }
  uint64_t duplicate_segments() const { return duplicate_segments_; }
  uint64_t reneged_bytes() const { return reneged_bytes_; }

 private:
  struct OooBlock {
    uint64_t start;
    uint64_t end;
    uint64_t recency;  // higher = more recently updated
  };

  void send_ack_now(std::optional<net::SackBlock> dsack);
  void merge_ooo(uint64_t start, uint64_t end);
  bool covered(uint64_t start, uint64_t end) const;
  void renege();

  sim::Simulator& sim_;
  Config config_;
  SendAckFn send_ack_;
  sim::Timer delack_timer_;
  sim::Timer renege_timer_;

  uint64_t rcv_nxt_ = 0;
  std::vector<OooBlock> ooo_;
  uint64_t recency_counter_ = 0;
  int unacked_segments_ = 0;

  uint32_t ts_recent_ = 0;  // RFC 7323 TS.Recent to echo
  int quickack_left_ = 0;
  bool ece_pending_ = false;  // echo ECE until the sender's CWR arrives
  uint64_t duplicate_segments_ = 0;
  uint64_t reneged_bytes_ = 0;
};

}  // namespace prr::tcp
