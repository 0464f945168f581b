// Server application driving a TCP connection through a sequence of HTTP
// responses, measuring each response's TCP latency exactly as the paper
// does (first byte sent -> last byte ACKed). Supports:
//   - request gaps between responses (client think time + request upload),
//   - throttled writes at an encoding rate after an initial burst
//     (YouTube's progressive HTTP, §5.4),
//   - application stalls (a scripted pause mid-response, §4 Fig 4).
// The app is one of the sender's SenderEvents listeners: transmissions
// stamp the first byte, snd.una advances complete responses, an abort
// ends the sequence.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/simulator.h"
#include "stats/latency.h"
#include "tcp/connection.h"

namespace prr::http {

struct ResponseSpec {
  uint64_t bytes = 0;
  // Delay between the previous response completing and this one starting.
  sim::Time gap_before = sim::Time::zero();
  // Throttling: 0 = write everything at once. Otherwise write
  // `burst_bytes` up front, then `chunk_bytes` every `chunk_interval`.
  uint64_t burst_bytes = 0;
  uint64_t chunk_bytes = 0;
  sim::Time chunk_interval = sim::Time::zero();

  static ResponseSpec plain(uint64_t bytes,
                            sim::Time gap = sim::Time::zero()) {
    ResponseSpec r;
    r.bytes = bytes;
    r.gap_before = gap;
    return r;
  }
};

class ServerApp : private tcp::SenderEvents {
 public:
  ServerApp(sim::Simulator& sim, tcp::Connection& conn,
            std::vector<ResponseSpec> responses,
            stats::LatencyTracker* latency = nullptr);

  // Pool-recycle: rewinds the app for the next connection on the same
  // (recycled) Connection. Copy-assigns the response list so the spec
  // vector's capacity is reused, and registers with the freshly reset
  // sender as the constructor does — so it must be called at the same
  // point in the per-connection wiring order (after the checker and the
  // watchdog registered).
  void reset(const std::vector<ResponseSpec>& responses,
             stats::LatencyTracker* latency);

  void start();
  bool finished() const { return finished_; }
  std::size_t responses_completed() const { return completed_; }

 private:
  void begin_response(std::size_t idx);
  void write_chunk();
  void on_transmit(uint64_t seq, uint32_t len, bool retx) override;
  void on_una_advance(uint64_t una) override;
  void on_abort() override;
  void finish();

  sim::Simulator& sim_;
  tcp::Connection& conn_;
  std::vector<ResponseSpec> responses_;
  stats::LatencyTracker* latency_;
  sim::Time path_rtt_;  // two-way propagation delay, stamped on each record

  std::size_t next_ = 0;
  std::size_t completed_ = 0;
  bool finished_ = false;

  // Current in-flight response.
  bool active_ = false;
  uint64_t cur_start_ = 0;
  uint64_t cur_end_ = 0;
  uint64_t cur_written_ = 0;
  stats::ResponseRecord cur_record_;
  bool first_byte_seen_ = false;
  sim::Timer chunk_timer_;
};

}  // namespace prr::http
