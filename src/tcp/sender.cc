#include "tcp/sender.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <deque>
#include <stdexcept>
#include <utility>
#include <variant>

namespace prr::tcp {

const char* to_string(TcpState s) {
  switch (s) {
    case TcpState::kOpen: return "Open";
    case TcpState::kDisorder: return "Disorder";
    case TcpState::kRecovery: return "Recovery";
    case TcpState::kLoss: return "Loss";
  }
  return "?";
}

namespace {
// Ring of recently retransmitted ranges for spurious-retransmit (DSACK)
// matching; bounded so long flows stay O(1).
constexpr std::size_t kRetxHistoryLimit = 512;
// Early-retransmit mitigation 2: the delay is srtt/4 clamped to this range.
constexpr sim::Time kErDelayMin = sim::Time::milliseconds(25);
constexpr sim::Time kErDelayMax = sim::Time::milliseconds(500);
// Floor of the tail-loss-probe timeout.
constexpr sim::Time kTlpMinPto = sim::Time::milliseconds(10);
// Added to the probe timeout when one segment is outstanding: the
// receiver may be holding its ACK on a delayed-ACK timer.
constexpr sim::Time kTlpDelackBound = sim::Time::milliseconds(50);
// Pacing rate as a multiple of cwnd/srtt: the headroom keeps pacing from
// capping a window that is still growing.
constexpr double kPacingGain = 1.25;
}  // namespace

Sender::Sender(sim::Simulator& sim, SenderConfig config, SendFn send)
    : SenderState(config),
      sim_(sim),
      config_(config),
      send_(std::move(send)),
      scoreboard_(config.mss),
      rto_timer_(sim, [this] { on_rto(); }),
      er_timer_(sim, [this] { on_er_timer(); }),
      tlp_timer_(sim, [this] { on_tlp_timer(); }),
      pacing_timer_(sim, [this] { try_send(); }),
      persist_timer_(sim, [this] { on_persist_timer(); }) {
  reset(config);
}

void Sender::reset(SenderConfig config) {
  config_ = config;
  scoreboard_.reset(0, config.mss, config.use_fack, config.sack_enabled);
  rto_est_ = RtoEstimator();
  if (!config.handshake_rtt.is_zero()) {
    rto_est_.on_rtt_sample(config.handshake_rtt);
  }
  // All timer EventIds are stale after Simulator::reset; stop() clears
  // them without touching the (recycled) event queue.
  rto_timer_.stop();
  er_timer_.stop();
  tlp_timer_.stop();
  pacing_timer_.stop();
  persist_timer_.stop();
  // Per-connection wiring must not leak into the next connection: the
  // listeners are checker/watchdog/app objects that are themselves reset
  // or destroyed between connections.
  num_listeners_ = 0;
  ack_ns_ = nullptr;
  set_recorder(nullptr, 0);
  static_cast<SenderState&>(*this) = SenderState(config_);
  retx_history_.clear();
}

void Sender::add_listener(SenderEvents* listener) {
  if (num_listeners_ == kMaxListeners) {
    throw std::length_error("Sender: more than kMaxListeners listeners");
  }
  listeners_[num_listeners_++] = listener;
}

void Sender::set_recorder(obs::FlightRecorder* recorder, uint32_t conn_id) {
  recorder_ = recorder;
  conn_id_ = conn_id;
  traced_state_ = state_;
  const struct {
    sim::Timer* timer;
    uint8_t id;
  } timers[] = {{&rto_timer_, 0},
                {&er_timer_, 1},
                {&tlp_timer_, 2},
                {&pacing_timer_, 3},
                {&persist_timer_, 4}};
  for (const auto& [timer, id] : timers) {
    if (recorder == nullptr) {
      timer->set_trace(nullptr);
      continue;
    }
    // kOpSchedule/kOpFire/kOpCancel align with the consecutive
    // kTimerSchedule/kTimerFire/kTimerCancel trace types.
    timer->set_trace([this, id = id](uint8_t op, sim::Time expiry) {
      PRR_TRACE(recorder_, sim_.now(), conn_id_,
                static_cast<obs::TraceType>(
                    static_cast<uint8_t>(obs::TraceType::kTimerSchedule) + op),
                id, 0, static_cast<uint64_t>(expiry.ns()));
    });
  }
}

void Sender::write(uint64_t bytes) {
  if (aborted_ || bytes == 0) return;
  if (snd_una_ >= snd_nxt_ && state_ == TcpState::kOpen && snd_nxt_ > 0) {
    // Idle restart (RFC 2861, Linux tcp_slow_start_after_idle): halve the
    // window per RTO elapsed idle, floored at the initial window, so a
    // persistent connection does not blast a stale window.
    sim::Time idle = sim_.now() - last_transmit_;
    const sim::Time rto = rto_est_.rto();
    while (idle > rto && cwnd_ > config_.initial_cwnd_bytes()) {
      cwnd_ = std::max(cwnd_ / 2, config_.initial_cwnd_bytes());
      idle -= rto;
    }
  }
  write_end_ += bytes;
  try_send();
  maybe_arm_persist();
}

uint64_t Sender::effective_pipe() const {
  if (config_.sack_enabled) return scoreboard_.pipe();
  // NewReno estimate: every dupack signals one segment that left the
  // network; the scoreboard still excludes marked-lost segments and
  // re-adds retransmissions.
  const uint64_t base = scoreboard_.pipe();
  const uint64_t discount =
      static_cast<uint64_t>(scoreboard_.dupacks()) * config_.mss;
  return base > discount ? base - discount : 0;
}

bool Sender::can_send_new() const {
  if (snd_nxt_ >= write_end_) return false;
  if (peer_rwnd_ != UINT64_MAX &&
      snd_nxt_ - snd_una_ + config_.mss > peer_rwnd_) {
    return false;
  }
  return true;
}

void Sender::try_send() {
  if (aborted_) return;
  const bool retransmits_allowed =
      state_ == TcpState::kRecovery || state_ == TcpState::kLoss;
  while (true) {
    const uint64_t pipe = effective_pipe();
    const SegRecord* cand =
        retransmits_allowed ? scoreboard_.next_retransmit_candidate()
                            : nullptr;
    if (cand != nullptr) {
      // Quantize to whole segments: a send needs window room for the
      // entire segment. This is what paces PRR's byte-exact sndcnt onto
      // alternate ACKs instead of leaking one segment per ACK.
      if (pipe + cand->len() > cwnd_) break;
      if (!pacing_allows_send()) break;
      transmit(cand->start, cand->end, /*retx=*/true);
      note_paced_send();
      continue;
    }
    // New data goes out in Disorder too: limited transmit (RFC 3042).
    if (!can_send_new()) break;
    const uint64_t len =
        std::min<uint64_t>(config_.mss, write_end_ - snd_nxt_);
    if (pipe + len > cwnd_) break;
    if (!pacing_allows_send()) break;
    send_new_segment();
    note_paced_send();
  }
  // Arm (or refresh) the tail-loss-probe timer once per send batch, after
  // snd.nxt reflects everything transmitted.
  maybe_arm_tlp();
}

void Sender::send_new_segment() {
  const uint64_t len =
      std::min<uint64_t>(config_.mss, write_end_ - snd_nxt_);
  transmit(snd_nxt_, snd_nxt_ + len, /*retx=*/false);
  snd_nxt_ += len;
}

void Sender::transmit(uint64_t start, uint64_t end, bool retx) {
  const uint32_t len = static_cast<uint32_t>(end - start);

  if (!retx) {
    scoreboard_.on_transmit(start, end, sim_.now());
  } else {
    scoreboard_.on_retransmit(start, sim_.now(), snd_nxt_,
                              state_ == TcpState::kRecovery);
  }

  ++metrics_.data_segments_sent;
  metrics_.bytes_sent += len;
  if (retx) {
    ++metrics_.retransmits_total;
    ++retransmits_since_progress_;
    if (undo_valid_) {
      ++undo_retrans_;
      retx_history_.push_back({start, end});
      if (retx_history_.size() > kRetxHistoryLimit) retx_history_.pop_front();
    }
    switch (state_) {
      case TcpState::kRecovery:
        ++metrics_.fast_retransmits;
        ++episode_retransmits_;
        break;
      case TcpState::kLoss:
        if (rto_head_retransmit_pending_) {
          ++metrics_.timeout_retransmits;
          rto_head_retransmit_pending_ = false;
        } else {
          ++metrics_.slow_start_retransmits;
        }
        break;
      default:
        break;
    }
  }
  if (cwr_active_ && state_ == TcpState::kOpen) {
    cwr_prr_.on_data_sent(len);
  }
  if (state_ == TcpState::kRecovery) {
    std::visit([len](auto& policy) { policy.on_sent(len); }, policy_);
    episode_bytes_sent_ += len;
    ++burst_in_progress_;
    episode_max_burst_ = std::max(episode_max_burst_, burst_in_progress_);
  }

  last_transmit_ = sim_.now();
  // Busy-time accounting: data is now outstanding.
  if (!busy_) {
    busy_ = true;
    busy_since_ = sim_.now();
  }
  // Coalesced arm (sim::Timer::start_coalesced): under batch delivery
  // the queue push is deferred — one per transmit burst instead of one
  // per segment — with the fire time, FIFO seq, and trace identical.
  if (!rto_timer_.pending()) rto_timer_.start_coalesced(rto_est_.rto());

  PRR_TRACE(recorder_, sim_.now(), conn_id_, obs::TraceType::kTransmit,
            retx ? 1 : 0, static_cast<uint16_t>(state_), start, len, cwnd_,
            snd_nxt_);
  notify(&SenderEvents::on_transmit, start, len, retx);

  net::Segment seg;
  seg.seq = start;
  seg.len = len;
  seg.is_retransmit = retx;
  seg.id = next_segment_id_++;
  seg.tx_time = sim_.now();
  if (config_.timestamps) {
    seg.has_ts = true;
    seg.tsval = static_cast<uint32_t>(sim_.now().ms());
  }
  if (config_.ecn) {
    seg.ect = true;
    if (cwr_flag_pending_) {
      seg.cwr = true;
      cwr_flag_pending_ = false;
    }
  }
  send_(std::move(seg));
}

void Sender::on_ack_segment(const net::Segment& ack) {
  if (ack_ns_ == nullptr) {
    process_ack(ack);
    return;
  }
  const auto t0 = std::chrono::steady_clock::now();
  process_ack(ack);
  const auto t1 = std::chrono::steady_clock::now();
  ack_ns_->record(static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count()));
}

void Sender::process_ack(const net::Segment& ack) {
  if (aborted_) return;
  if (config_.validate_acks && ack.ack > snd_nxt_) {
    // RFC 5961 §5: an ACK for data never sent is invalid — processing it
    // would teleport snd.una beyond snd.nxt. Drop it (its rwnd too: a
    // corrupted segment's fields are all untrustworthy).
    ++metrics_.bad_acks_ignored;
    return;
  }
  if (ack.rwnd != 0) peer_rwnd_ = ack.rwnd;
  if (ack.ack < snd_una_) return;  // ancient ACK: ignore

  if (recorder_ != nullptr) {
    for (const net::SackBlock& blk : ack.sacks) {
      recorder_->write(obs::make_record(sim_.now(), conn_id_,
                                        obs::TraceType::kSackSeen, 0, 0,
                                        blk.start, blk.end));
    }
    if (ack.dsack.has_value()) {
      recorder_->write(obs::make_record(sim_.now(), conn_id_,
                                        obs::TraceType::kSackSeen, 1, 0,
                                        ack.dsack->start, ack.dsack->end));
    }
  }

  burst_in_progress_ = 0;

  // Linux tcp_is_cwnd_limited: the window may only grow if the flight
  // was actually filling it (RFC 2861 cwnd validation); app-limited
  // connections must not inflate cwnd they never use.
  cwnd_limited_ = snd_nxt_ - snd_una_ + config_.mss >= cwnd_;

  const AckOutcome out = scoreboard_.on_ack(ack, sim_.now());

  if (out.lost_retransmits_detected > 0) {
    metrics_.lost_retransmits_detected += out.lost_retransmits_detected;
    metrics_.lost_fast_retransmits += out.lost_fast_retransmits_detected;
    PRR_TRACE(recorder_, sim_.now(), conn_id_,
              obs::TraceType::kLostRetransmit, 0, 0,
              static_cast<uint64_t>(out.lost_retransmits_detected),
              static_cast<uint64_t>(out.lost_fast_retransmits_detected));
  }
  if (config_.timestamps && ack.has_ts && ack.tsecr > 0 &&
      out.una_advanced) {
    // Timestamp echo (RFC 7323 RTTM): sample on ACKs of new data only —
    // the echo then reflects the segment that advanced the left edge,
    // even when that was a retransmission (no Karn restriction). Pure
    // dupacks echo the stale TS.Recent of older in-order data and must
    // not feed the estimator.
    const sim::Time echoed = sim::Time::milliseconds(ack.tsecr);
    if (sim_.now() >= echoed) rto_est_.on_rtt_sample(sim_.now() - echoed);
  } else if (out.rtt_sample) {
    rto_est_.on_rtt_sample(*out.rtt_sample);
  }

  if (out.una_advanced) {
    snd_una_ = scoreboard_.snd_una();
    rto_est_.reset_backoff();
    retransmits_since_progress_ = 0;
    tlp_probe_outstanding_ = false;
    if (er_timer_.pending()) {
      er_timer_.stop();
      ++metrics_.er_delayed_cancelled;
    }
    PRR_TRACE(recorder_, sim_.now(), conn_id_, obs::TraceType::kUnaAdvance,
              0, 0, snd_una_);
    notify(&SenderEvents::on_una_advance, snd_una_);
  }

  handle_dsack(out);
  check_eifel(ack, out);
  if (aborted_) return;

  if (config_.ecn) {
    maybe_enter_cwr(ack);
    process_cwr(out);
  }

  switch (state_) {
    case TcpState::kOpen:
      process_in_open(out);
      break;
    case TcpState::kDisorder:
      process_in_disorder(out);
      break;
    case TcpState::kRecovery:
      process_in_recovery(out);
      break;
    case TcpState::kLoss:
      process_in_loss(out);
      break;
  }

  try_send();

  // Timer management: restart on forward progress (cumulative or SACK,
  // as Linux re-arms on any ACK that changes what is outstanding);
  // disarm when idle.
  if (snd_una_ >= snd_nxt_) {
    rto_timer_.stop();
    tlp_timer_.stop();
    if (busy_) {
      busy_ = false;
      busy_accum_ += sim_.now() - busy_since_;
    }
  } else if (out.una_advanced || out.newly_sacked_bytes > 0) {
    // Progress restarts the retransmission timer — unless the probe
    // timer currently owns the deadline (it re-arms the RTO itself).
    // The hottest rearm in the simulator (once per progress ACK):
    // coalesced, it costs one queue push per ACK train instead of one
    // per ACK, with identical fire time and tie-break order.
    if (!tlp_timer_.pending()) rto_timer_.start_coalesced(rto_est_.rto());
    maybe_arm_tlp();
  }
  // Zero-window handling: an opened window ends any persist episode; a
  // closed one with nothing in flight starts (or continues) probing.
  if (can_send_new() || snd_nxt_ >= write_end_) {
    persist_timer_.stop();
    persist_backoff_ = 0;
  }
  maybe_arm_persist();

  if (recorder_ != nullptr) {
    recorder_->write(obs::make_record(
        sim_.now(), conn_id_, obs::TraceType::kAck,
        static_cast<uint8_t>(state_), 0, ack.ack, cwnd_, effective_pipe(),
        ssthresh_, out.delivered_bytes(), snd_nxt_));
    if (state_ == TcpState::kRecovery) {
      if (const auto* prr = std::get_if<PrrRecovery>(&policy_)) {
        const core::PrrState& st = prr->state();
        recorder_->write(obs::make_record(
            sim_.now(), conn_id_, obs::TraceType::kPrr,
            st.in_proportional_mode() ? 1 : 0,
            static_cast<uint16_t>(st.bound()), st.prr_delivered(),
            st.prr_out(), st.recover_fs(), st.ssthresh(), cwnd_));
      }
    }
  }

  notify(&SenderEvents::on_ack_processed, ack);
}

void Sender::process_in_open(const AckOutcome& out) {
  if (out.una_advanced) grow_cwnd_open(out.newly_acked_bytes);
  const bool non_sack_dupack =
      !config_.sack_enabled && !out.una_advanced &&
      scoreboard_.dupacks() > 0 && snd_nxt_ > snd_una_;
  if (scoreboard_.any_sacked() || non_sack_dupack) {
    set_state(TcpState::kDisorder);
    process_in_disorder(out);
  }
}

void Sender::process_in_disorder(const AckOutcome& out) {
  if (out.una_advanced && !scoreboard_.any_sacked()) {
    // The hole filled without a retransmit (pure reordering): back to
    // Open with no window reduction.
    set_state(TcpState::kOpen);
    grow_cwnd_open(out.newly_acked_bytes);
    return;
  }
  scoreboard_.mark_losses();
  if (scoreboard_.recovery_triggered()) {
    enter_recovery(out.delivered_bytes(), /*via_er=*/false);
  } else {
    check_early_retransmit(out);
  }
}

void Sender::check_early_retransmit(const AckOutcome& out) {
  if (config_.early_retransmit == EarlyRetransmitMode::kOff) return;
  if (state_ != TcpState::kDisorder) return;
  if (snd_nxt_ <= snd_una_) return;
  const uint64_t outstanding = snd_nxt_ - snd_una_;
  const int osegs =
      static_cast<int>((outstanding + config_.mss - 1) / config_.mss);
  if (osegs >= 4) return;       // RFC 5827: only when flight < 4 segments
  if (can_send_new()) return;   // new data would trigger normal recovery
  const int er_thresh = std::max(1, osegs - 1);
  if (scoreboard_.dupacks() < er_thresh) return;
  if ((config_.early_retransmit == EarlyRetransmitMode::kReorderMitigation ||
       config_.early_retransmit == EarlyRetransmitMode::kBothMitigations) &&
      scoreboard_.reordering_seen()) {
    return;  // mitigation 1: past reordering disables ER
  }
  if (config_.early_retransmit == EarlyRetransmitMode::kBothMitigations) {
    // Mitigation 2: delay the early retransmit by srtt/4 (clamped); an
    // ACK advancing snd.una cancels it.
    if (!er_timer_.pending()) {
      const sim::Time delay =
          rto_est_.has_sample()
              ? std::clamp(rto_est_.srtt() / 4, kErDelayMin, kErDelayMax)
              : kErDelayMin;
      er_timer_.start(delay);
    }
    return;
  }
  enter_recovery(out.delivered_bytes(), /*via_er=*/true);
}

bool Sender::pacing_allows_send() {
  if (!config_.pacing || !rto_est_.has_sample()) return true;
  if (sim_.now() >= next_pace_at_) return true;
  if (!pacing_timer_.pending()) {
    pacing_timer_.start(next_pace_at_ - sim_.now());
  }
  return false;
}

void Sender::note_paced_send() {
  if (!config_.pacing || !rto_est_.has_sample()) return;
  // Rate = kPacingGain * cwnd / srtt  =>  one segment every
  // srtt / (gain * cwnd_segments).
  const double cwnd_segs = std::max(
      1.0, static_cast<double>(cwnd_) / config_.mss);
  const sim::Time interval =
      rto_est_.srtt() * (1.0 / (kPacingGain * cwnd_segs));
  const sim::Time base = std::max(sim_.now(), next_pace_at_);
  next_pace_at_ = base + interval;
}

void Sender::maybe_enter_cwr(const net::Segment& ack) {
  if (!ack.ece || cwr_active_ || state_ != TcpState::kOpen) return;
  if (snd_nxt_ <= snd_una_) return;
  // RFC 3168 + RFC 6937: one window reduction per RTT of ECE signals,
  // paced by PRR rather than applied in a single step.
  cwr_active_ = true;
  cwr_point_ = snd_nxt_;
  cwr_flag_pending_ = true;
  ssthresh_ = std::visit(
      [this](auto& cc) { return cc.ssthresh_after_loss(cwnd_); }, cc_);
  cwr_prr_.enter_recovery(snd_nxt_ - snd_una_, ssthresh_, config_.mss);
  ++metrics_.ecn_cwr_events;
}

void Sender::process_cwr(const AckOutcome& out) {
  if (!cwr_active_) return;
  if (state_ != TcpState::kOpen) {
    // Loss recovery supersedes the ECN reduction.
    cwr_active_ = false;
    return;
  }
  if (snd_una_ >= cwr_point_) {
    cwnd_ = std::max<uint64_t>(cwr_prr_.exit_cwnd(), config_.mss);
    cwr_active_ = false;
    return;
  }
  const uint64_t sndcnt =
      cwr_prr_.on_ack(out.delivered_bytes(), effective_pipe());
  cwnd_ = effective_pipe() + sndcnt;
}

void Sender::maybe_arm_tlp() {
  if (!config_.tail_loss_probe) return;
  if (state_ != TcpState::kOpen || snd_una_ >= snd_nxt_ ||
      tlp_probe_outstanding_) {
    tlp_timer_.stop();
    return;
  }
  sim::Time pto;
  if (rto_est_.has_sample()) {
    pto = 2 * rto_est_.srtt();
    if (snd_nxt_ - snd_una_ <= config_.mss) {
      // A single outstanding segment may be sitting behind a delayed-ACK
      // timer at the receiver; wait it out before probing.
      pto += kTlpDelackBound;
    }
    pto = std::max(pto, kTlpMinPto);
  } else {
    pto = rto_est_.rto();
  }
  pto = std::min(pto, rto_est_.rto());
  tlp_timer_.start_coalesced(pto);  // per-ACK rearm: defer the queue push
  // The probe timer supersedes the retransmission timer (as in Linux,
  // where ICSK_TIME_LOSS_PROBE replaces ICSK_TIME_RETRANS); the RTO is
  // re-armed when the probe fires.
  rto_timer_.stop();
}

void Sender::on_tlp_timer() {
  if (aborted_ || state_ != TcpState::kOpen) return;
  if (snd_una_ >= snd_nxt_) return;
  tlp_probe_outstanding_ = true;  // at most one probe per episode
  ++metrics_.tlp_probes_sent;
  if (can_send_new()) {
    // Probe with new data: it advances snd.nxt and, if the tail was
    // lost, its SACK exposes the hole to fast recovery.
    send_new_segment();
  } else if (const SegRecord* tail = scoreboard_.last_unsacked()) {
    transmit(tail->start, tail->end, /*retx=*/true);
  }
  // The probe restarts the RTO clock (RFC 8985: re-arm after the probe
  // so the timeout measures from the last transmission).
  rto_timer_.start(rto_est_.rto());
}

void Sender::on_er_timer() {
  if (aborted_ || state_ != TcpState::kDisorder) return;
  enter_recovery(0, /*via_er=*/true);
  try_send();
}

void Sender::enter_recovery(uint64_t delivered_on_trigger, bool via_er) {
  set_state(TcpState::kRecovery);
  tlp_timer_.stop();
  ++metrics_.fast_recovery_events;
  if (via_er) ++metrics_.er_triggered;
  recovery_point_ = snd_nxt_;

  prior_cwnd_ = cwnd_;
  prior_ssthresh_ = ssthresh_;
  undo_valid_ = true;
  undo_retrans_ = 0;
  spurious_seen_ = false;
  retx_history_.clear();

  ssthresh_ = std::visit(
      [this](auto& cc) { return cc.ssthresh_after_loss(cwnd_); }, cc_);
  scoreboard_.mark_losses();
  if (scoreboard_.next_retransmit_candidate() == nullptr) {
    scoreboard_.mark_first_hole_lost();
  }

  const uint64_t pipe = effective_pipe();
  episode_ = RecoveryEntry{sim_.now(), via_er, config_.mss,
                           snd_nxt_ - snd_una_, ssthresh_, pipe,
                           prior_cwnd_, recovery_point_};
  episode_retransmits_ = episode_bytes_sent_ = episode_max_burst_ = 0;
  std::visit(
      [this](auto& policy) {
        policy.on_enter(episode_.recover_fs, ssthresh_, cwnd_, config_.mss);
      },
      policy_);
  PRR_TRACE(recorder_, sim_.now(), conn_id_, obs::TraceType::kEnterRecovery,
            via_er ? 1 : 0, static_cast<uint16_t>(episode_.mss),
            episode_.recover_fs, episode_.ssthresh, episode_.pipe,
            episode_.prior_cwnd, episode_.recovery_point);

  // The triggering ACK also clocks the policy. Without SACK the
  // trigger dupack is known to have delivered one segment (RFC 6937's
  // non-SACK heuristic).
  if (!config_.sack_enabled && delivered_on_trigger == 0) {
    delivered_on_trigger = config_.mss;
  }
  cwnd_ = std::visit(
      [delivered_on_trigger, pipe](auto& policy) {
        return policy.on_ack(delivered_on_trigger, pipe);
      },
      policy_);

  try_send();
  if (episode_retransmits_ == 0) {
    // RFC 3517's explicit fast_retransmit(): the first retransmission is
    // sent even when pipe exceeds the reduced window.
    if (const SegRecord* cand = scoreboard_.next_retransmit_candidate()) {
      transmit(cand->start, cand->end, /*retx=*/true);
    }
  }
}

void Sender::process_in_recovery(const AckOutcome& out) {
  scoreboard_.mark_losses();
  if (snd_una_ >= recovery_point_) {
    exit_recovery();
    return;
  }
  uint64_t delivered = out.delivered_bytes();
  if (!config_.sack_enabled) {
    if (out.una_advanced) {
      // NewReno partial ACK (RFC 6582): forward progress that stops
      // short of the recovery point pinpoints the next hole, which is
      // retransmitted immediately (not subject to the window budget).
      scoreboard_.mark_first_hole_lost();
      if (const SegRecord* c = scoreboard_.next_retransmit_candidate()) {
        transmit(c->start, c->end, /*retx=*/true);
      }
    } else if (delivered == 0) {
      delivered = config_.mss;  // dupack = one segment delivered
    }
  }
  const uint64_t pipe = effective_pipe();
  cwnd_ = std::visit(
      [delivered, pipe](auto& policy) {
        return policy.on_ack(delivered, pipe);
      },
      policy_);
}

void Sender::exit_recovery() {
  const uint64_t pipe = effective_pipe();
  const uint64_t cwnd_at_exit = cwnd_;
  const uint64_t exit_cwnd = std::visit(
      [this, pipe](auto& policy) { return policy.exit_cwnd(pipe, cwnd_); },
      policy_);
  cwnd_ = std::max<uint64_t>(exit_cwnd, config_.mss);
  const RecoveryClose close =
      episode_close(RecoveryExit::kCompleted, cwnd_at_exit, pipe);
  PRR_TRACE(recorder_, sim_.now(), conn_id_, obs::TraceType::kExitRecovery,
            0, 0, close.cwnd_after_exit, close.pipe_at_exit,
            close.retransmits, close.bytes_sent, close.cwnd_at_exit,
            close.max_burst_segments);
  notify(&SenderEvents::on_recovery_closed, episode_, close);
  set_state(scoreboard_.any_sacked() ? TcpState::kDisorder : TcpState::kOpen);
  scoreboard_.clear_dupacks();
}

RecoveryClose Sender::episode_close(RecoveryExit how, uint64_t cwnd_at_exit,
                                   uint64_t pipe_at_exit) const {
  return RecoveryClose{sim_.now(), how, cwnd_at_exit, cwnd_, pipe_at_exit,
                       ssthresh_, episode_retransmits_, episode_bytes_sent_,
                       episode_max_burst_};
}

void Sender::handle_dsack(const AckOutcome& out) {
  if (!out.saw_dsack) return;
  ++metrics_.dsacks_received;
  if (!undo_valid_ || !out.dsack_block) return;
  // A DSACK covering a range we retransmitted means that retransmission
  // was spurious (the original arrived too).
  const auto& blk = *out.dsack_block;
  for (auto it = retx_history_.begin(); it != retx_history_.end(); ++it) {
    if (it->first >= blk.start && it->second <= blk.end) {
      retx_history_.erase(it);
      ++metrics_.spurious_retransmits;
      spurious_seen_ = true;
      if (undo_retrans_ > 0) --undo_retrans_;
      break;
    }
  }
  if (spurious_seen_ && undo_retrans_ == 0) try_undo();
}

void Sender::check_eifel(const net::Segment& ack, const AckOutcome& out) {
  if (!config_.timestamps || !ack.has_ts || !out.acked_rexmit_tx_time) {
    return;
  }
  // Eifel detection (RFC 3522): the ACK acknowledges a segment we
  // retransmitted, but the echoed timestamp predates the retransmission —
  // so the *original* arrived and the retransmission was spurious.
  // Compare at timestamp-clock granularity (whole milliseconds): tsval
  // is the truncated send time, so the retransmission's own echo is
  // exactly floor(tx_time).
  const uint32_t retx_tsval =
      static_cast<uint32_t>(out.acked_rexmit_tx_time->ms());
  if (ack.tsecr >= retx_tsval) return;
  if (state_ == TcpState::kRecovery && undo_valid_) {
    ++metrics_.spurious_retransmits;
    try_undo();
  } else if (state_ == TcpState::kLoss && frto_check_pending_) {
    frto_check_pending_ = false;
    ++metrics_.spurious_retransmits;
    undo_loss_state();
  }
}

void Sender::undo_loss_state() {
  // A timeout proved spurious (F-RTO heuristic or Eifel): restore the
  // congestion state and revert loss marks on data still in flight.
  cwnd_ = prior_cwnd_;
  ssthresh_ = prior_ssthresh_;
  scoreboard_.clear_unretransmitted_loss_marks();
  ++metrics_.spurious_rto_undone;
  ++metrics_.undo_events;
  PRR_TRACE(recorder_, sim_.now(), conn_id_, obs::TraceType::kUndo, 1, 0,
            cwnd_, ssthresh_);
  set_state(scoreboard_.any_sacked() ? TcpState::kDisorder : TcpState::kOpen);
  rto_head_retransmit_pending_ = false;
}

void Sender::try_undo() {
  // Every retransmission of the episode proved spurious: revert the
  // congestion state (Eifel response via DSACK).
  cwnd_ = std::max(cwnd_, prior_cwnd_);
  ssthresh_ = prior_ssthresh_;
  ++metrics_.undo_events;
  const RecoveryClose close =
      episode_close(RecoveryExit::kUndo, cwnd_, scoreboard_.pipe());
  PRR_TRACE(recorder_, sim_.now(), conn_id_, obs::TraceType::kUndo, 0, 0,
            close.cwnd_after_exit, close.ssthresh, close.pipe_at_exit,
            close.max_burst_segments);
  if (episode_.via_er) ++metrics_.er_spurious;
  undo_valid_ = false;
  spurious_seen_ = false;
  if (state_ == TcpState::kRecovery) {
    notify(&SenderEvents::on_recovery_closed, episode_, close);
    set_state(TcpState::kOpen);
    scoreboard_.clear_dupacks();
  }
}

void Sender::process_in_loss(const AckOutcome& out) {
  if (!out.una_advanced) {
    // A dupack during Loss means the network really is dropping: the
    // F-RTO spurious hypothesis is rejected (RFC 5682 step 2b).
    if (out.newly_sacked_bytes > 0) frto_check_pending_ = false;
    return;
  }
  if (frto_check_pending_) {
    frto_check_pending_ = false;
    if (snd_una_ > frto_head_end_) {
      // The ACK covers data beyond the only segment retransmitted since
      // the timeout: original transmissions are being delivered, so the
      // RTO was spurious. Revert the congestion state and loss marks.
      undo_loss_state();
      return;
    }
  }
  cwnd_ = std::visit(
      [this, &out](auto& cc) {
        return cc.on_ack(cwnd_, ssthresh_, out.newly_acked_bytes, sim_.now());
      },
      cc_);
  if (snd_una_ >= recovery_point_) {
    set_state(scoreboard_.any_sacked() ? TcpState::kDisorder
                                       : TcpState::kOpen);
    rto_head_retransmit_pending_ = false;
  }
}

void Sender::on_rto() {
  if (aborted_) return;
  if (snd_una_ >= snd_nxt_) return;  // nothing outstanding (stale timer)

  PRR_TRACE(recorder_, sim_.now(), conn_id_, obs::TraceType::kRtoFired,
            static_cast<uint8_t>(state_), 0, snd_una_, snd_nxt_, cwnd_,
            static_cast<uint64_t>(rto_est_.backoff_count()),
            static_cast<uint64_t>(rto_est_.rto().ns()),
            state_ == TcpState::kRecovery ? episode_max_burst_ : 0);
  ++metrics_.timeouts_total;
  switch (state_) {
    case TcpState::kOpen:
      ++metrics_.timeouts_in_open;
      break;
    case TcpState::kDisorder:
      ++metrics_.timeouts_in_disorder;
      break;
    case TcpState::kRecovery:
      ++metrics_.timeouts_in_recovery;
      notify(&SenderEvents::on_recovery_closed, episode_,
             episode_close(RecoveryExit::kRto, cwnd_, effective_pipe()));
      break;
    case TcpState::kLoss:
      ++metrics_.timeouts_exp_backoff;
      break;
  }

  if (state_ != TcpState::kLoss) {
    // prior_cwnd_ is free: undo_valid_ (cleared here) guards the
    // Recovery undo, and Recovery cannot start from Loss.
    prior_cwnd_ = cwnd_;
    prior_ssthresh_ = ssthresh_;
    std::visit(
        [this](auto& cc) {
          ssthresh_ = cc.ssthresh_after_loss(cwnd_);
          cc.on_timeout(sim_.now());
        },
        cc_);
    undo_valid_ = false;
    recovery_point_ = snd_nxt_;
    set_state(TcpState::kLoss);
  }

  cwnd_ = config_.mss;  // restart the self clock from one segment
  if (config_.renege_recovery && scoreboard_.head_sacked()) {
    // The head of the window is SACKed yet snd.una never moved over it:
    // the receiver reneged (RFC 2018 §8) or the SACK was a lie. Either
    // way the marks are untrustworthy — forget them all so the data
    // below becomes retransmittable, exactly like Linux's
    // tcp_check_sack_reneging → tcp_timeout_mark_lost path.
    [[maybe_unused]] const uint64_t forgotten =
        scoreboard_.forget_sack_marks();
    ++metrics_.sack_reneg_events;
    PRR_TRACE(recorder_, sim_.now(), conn_id_, obs::TraceType::kSackReneg, 0,
              0, snd_una_, forgotten);
  }
  scoreboard_.on_timeout_mark_all_lost();
  rto_head_retransmit_pending_ = true;
  // F-RTO-style spurious-timeout detection: if the first cumulative ACK
  // after the timeout covers more than the retransmitted head segment,
  // the extra coverage can only be original data still in flight — the
  // timeout was spurious and the congestion state is restored.
  frto_check_pending_ = true;
  const SegRecord* head = scoreboard_.next_retransmit_candidate();
  frto_head_end_ = head != nullptr ? head->end : snd_una_ + config_.mss;
  scoreboard_.clear_dupacks();
  er_timer_.stop();

  tlp_timer_.stop();
  rto_est_.backoff();
  notify(&SenderEvents::on_rto, snd_una_, rto_est_.backoff_count());
  if (rto_est_.backoff_count() > config_.max_rto_backoffs) {
    abort_connection();
    return;
  }
  try_send();
  rto_timer_.start(rto_est_.rto());
}

void Sender::maybe_arm_persist() {
  // Deadlock guard: data is waiting, nothing is in flight (so no RTO is
  // armed), and the advertised window blocks even one MSS. Without a
  // probe no event will ever fire again on this connection.
  if (!config_.zero_window_probes || aborted_) return;
  if (persist_timer_.pending()) return;
  if (snd_una_ < snd_nxt_) return;      // in-flight data: RTO owns progress
  if (snd_nxt_ >= write_end_) return;   // nothing left to send
  if (can_send_new()) return;           // window open: try_send handles it
  const sim::Time base = rto_est_.rto();
  const int shift = std::min(persist_backoff_, 6);
  const sim::Time interval =
      std::min(base * (int64_t{1} << shift), sim::Time::seconds(60.0));
  persist_timer_.start(interval);
}

void Sender::on_persist_timer() {
  if (aborted_) return;
  if (can_send_new() || snd_nxt_ >= write_end_ || snd_una_ < snd_nxt_) {
    // The window opened (or data went into flight) since arming.
    persist_backoff_ = 0;
    return;
  }
  // RFC 793 window probe: one byte beyond the advertised window. The
  // probe is real stream data, so its ACK both advances the flow and
  // reports the current window.
  ++metrics_.window_probes_sent;
  ++persist_backoff_;
  transmit(snd_nxt_, snd_nxt_ + 1, /*retx=*/false);
  snd_nxt_ += 1;
}

void Sender::abort_connection() {
  aborted_ = true;
  metrics_.failed_retransmits += retransmits_since_progress_;
  ++metrics_.connections_aborted;
  PRR_TRACE(recorder_, sim_.now(), conn_id_, obs::TraceType::kAbort, 0, 0,
            snd_una_, snd_nxt_);
  rto_timer_.stop();
  er_timer_.stop();
  tlp_timer_.stop();
  pacing_timer_.stop();
  persist_timer_.stop();
  if (busy_) {
    busy_ = false;
    busy_accum_ += sim_.now() - busy_since_;
  }
  set_state(state_);  // close loss-time accounting
  notify(&SenderEvents::on_abort);
}

void Sender::grow_cwnd_open(uint64_t acked_bytes) {
  if (cwr_active_) return;  // the CWR episode owns the window
  if (!cwnd_limited_) return;
  cwnd_ = std::visit(
      [this, acked_bytes](auto& cc) {
        return cc.on_ack(cwnd_, ssthresh_, acked_bytes, sim_.now());
      },
      cc_);
}

void Sender::set_state(TcpState s) {
  state_ = s;
  if (state_ != traced_state_) {
    PRR_TRACE(recorder_, sim_.now(), conn_id_, obs::TraceType::kStateChange,
              static_cast<uint8_t>(traced_state_),
              static_cast<uint16_t>(state_), cwnd_, ssthresh_, snd_una_,
              snd_nxt_);
    traced_state_ = state_;
  }
  const bool now_loss = !aborted_ && (state_ == TcpState::kRecovery ||
                                      state_ == TcpState::kLoss);
  if (now_loss && !in_loss_recovery_) {
    in_loss_recovery_ = true;
    loss_since_ = sim_.now();
  } else if (!now_loss && in_loss_recovery_) {
    in_loss_recovery_ = false;
    loss_accum_ += sim_.now() - loss_since_;
  }
}

sim::Time Sender::network_transmit_time() const {
  sim::Time t = busy_accum_;
  if (busy_) t += sim_.now() - busy_since_;
  return t;
}

sim::Time Sender::loss_recovery_time() const {
  sim::Time t = loss_accum_;
  if (in_loss_recovery_) t += sim_.now() - loss_since_;
  return t;
}

}  // namespace prr::tcp
