#include "http/server_app.h"

#include <algorithm>
#include <utility>

namespace prr::http {

ServerApp::ServerApp(sim::Simulator& sim, tcp::Connection& conn,
                     std::vector<ResponseSpec> responses,
                     stats::LatencyTracker* latency)
    : sim_(sim),
      conn_(conn),
      responses_(std::move(responses)),
      latency_(latency),
      chunk_timer_(sim, [this] { write_chunk(); }) {
  path_rtt_ = conn.config().path.data_link.propagation_delay +
              conn.config().path.ack_link.propagation_delay;
  conn_.sender().add_listener(this);
}

void ServerApp::reset(const std::vector<ResponseSpec>& responses,
                      stats::LatencyTracker* latency) {
  responses_ = responses;  // copy-assign: the spec vector keeps capacity
  latency_ = latency;
  path_rtt_ = conn_.config().path.data_link.propagation_delay +
              conn_.config().path.ack_link.propagation_delay;
  next_ = 0;
  completed_ = 0;
  finished_ = false;
  active_ = false;
  cur_start_ = 0;
  cur_end_ = 0;
  cur_written_ = 0;
  cur_record_ = stats::ResponseRecord{};
  first_byte_seen_ = false;
  chunk_timer_.stop();  // stale after Simulator::reset; stop() clears it
  conn_.sender().add_listener(this);
}

void ServerApp::start() {
  if (responses_.empty()) {
    finish();
    return;
  }
  begin_response(0);
}

void ServerApp::begin_response(std::size_t idx) {
  next_ = idx;
  const ResponseSpec& spec = responses_[idx];
  auto begin = [this, &spec] {
    active_ = true;
    first_byte_seen_ = false;
    cur_start_ = conn_.sender().write_end();
    cur_end_ = cur_start_ + spec.bytes;
    cur_written_ = 0;
    cur_record_ = stats::ResponseRecord{};
    cur_record_.set_bytes(spec.bytes);
    cur_record_.set_path_rtt(path_rtt_);
    write_chunk();
  };
  if (spec.gap_before.is_zero()) {
    begin();
  } else {
    sim_.schedule_in(spec.gap_before, begin);
  }
}

void ServerApp::write_chunk() {
  const ResponseSpec& spec = responses_[next_];
  uint64_t n;
  if (spec.chunk_bytes == 0) {
    n = spec.bytes - cur_written_;  // unthrottled: everything at once
  } else if (cur_written_ == 0) {
    n = std::min(spec.burst_bytes > 0 ? spec.burst_bytes : spec.chunk_bytes,
                 spec.bytes);
  } else {
    n = std::min(spec.chunk_bytes, spec.bytes - cur_written_);
  }
  cur_written_ += n;
  conn_.write(n);
  if (cur_written_ < spec.bytes) {
    chunk_timer_.start(spec.chunk_interval);
  }
}

void ServerApp::on_transmit(uint64_t seq, uint32_t len, bool retx) {
  if (!active_) return;
  const uint64_t end = seq + len;
  if (end <= cur_start_ || seq >= cur_end_) return;  // other response
  if (!first_byte_seen_ && !retx && seq <= cur_start_ && end > cur_start_) {
    first_byte_seen_ = true;
    cur_record_.set_first_byte_sent(sim_.now());
  }
  if (retx) cur_record_.set_had_retransmit(true);
}

void ServerApp::on_una_advance(uint64_t una) {
  if (!active_ || una < cur_end_) return;
  active_ = false;
  chunk_timer_.stop();
  cur_record_.set_last_byte_acked(sim_.now());
  cur_record_.set_completed(true);
  if (latency_) latency_->add(cur_record_);
  ++completed_;
  if (next_ + 1 < responses_.size()) {
    begin_response(next_ + 1);
  } else {
    finish();
  }
}

void ServerApp::on_abort() {
  if (active_) {
    active_ = false;
    chunk_timer_.stop();
    cur_record_.set_completed(false);
    if (latency_) latency_->add(cur_record_);
  }
  finish();
}

void ServerApp::finish() {
  if (finished_) return;
  finished_ = true;
  chunk_timer_.stop();
}

}  // namespace prr::http
