// TCP sender implementing the loss-recovery machinery the paper studies:
// the four Linux recovery states (Open, Disorder, Recovery, Loss), limited
// transmit (RFC 3042), selectable congestion control and fast-recovery
// window regulation (RFC 3517 / Linux rate halving / PRR), RTO with
// exponential backoff (RFC 6298), DSACK-based undo (Eifel response), F-RTO,
// and early retransmit (RFC 5827) with the two mitigations the paper
// evaluates.
//
// Ownership: the Scoreboard is the loss detector. It counts duplicate
// ACKs, keeps dupthresh and the reordering state, marks losses and says
// when fast recovery should start, and reports each ACK as one AckOutcome.
// The sender is the window regulator. It owns the recovery state machine,
// cwnd/ssthresh (through its CongestionControl and RecoveryPolicy
// values), the timers, undo, and the per-connection Metrics ledger and
// RecoveryLog entry. The paper's split is the same: loss detection picks
// *which* data to send, PRR decides *how much*. Observers register as
// SenderEvents listeners; trace records go to the flight recorder
// directly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <type_traits>
#include <utility>

#include "core/prr.h"
#include "net/segment.h"
#include "obs/flight_recorder.h"
#include "sim/simulator.h"
#include "stats/recovery_log.h"
#include "tcp/cc/congestion_control.h"
#include "tcp/metrics.h"
#include "tcp/recovery/recovery.h"
#include "tcp/rto.h"
#include "tcp/scoreboard.h"
#include "util/log2_hist.h"

namespace prr::tcp {

enum class TcpState { kOpen, kDisorder, kRecovery, kLoss };

const char* to_string(TcpState s);

enum class EarlyRetransmitMode {
  kOff,
  kNaive,             // RFC 5827 with no mitigation
  kReorderMitigation, // disable ER once reordering was detected (M1)
  kBothMitigations,   // M1 + short delay timer (M2), the paper's choice
};

struct SenderConfig {
  uint32_t mss = 1430;
  uint32_t initial_cwnd_segments = 10;  // Table 4: IW10
  CcKind cc = CcKind::kCubic;
  // GAIMD decrease factor (used only when cc == kGaimd).
  double gaimd_beta = 0.5;
  RecoveryKind recovery = RecoveryKind::kPrr;
  core::ReductionBound prr_bound = core::ReductionBound::kSlowStart;

  // SACK negotiated on this connection (96% of the paper's connections).
  // Without SACK the sender falls back to NewReno-style recovery: pure
  // dupack counting, one retransmission per partial ACK, and the RFC 6937
  // non-SACK heuristic of treating each dupack as one delivered MSS.
  bool sack_enabled = true;
  // TCP timestamps (RFC 7323; 12% of the paper's connections). Enables
  // per-ACK RTT sampling without Karn's restriction and Eifel detection
  // (RFC 3522): an echoed timestamp older than the retransmission proves
  // the retransmission spurious, and the window reduction is undone.
  bool timestamps = false;
  // FACK marking (reordering switches it off); the Scoreboard owns it
  // once the connection starts.
  bool use_fack = true;

  EarlyRetransmitMode early_retransmit = EarlyRetransmitMode::kOff;

  // Tail loss probe (the paper's §8 future work, later RFC 8985 /
  // draft-dukkipati-tcpm-tcp-loss-probe): when the tail of a flow is
  // lost there are no dupacks, so the only standard repair is an RTO.
  // TLP arms a probe timer at ~2*SRTT; if nothing is ACKed by then the
  // sender transmits one probe (new data if available, else a
  // retransmission of the last outstanding segment), whose SACK feedback
  // converts would-be timeouts into fast recovery. Off by default: the
  // paper's measured baseline predates TLP.
  bool tail_loss_probe = false;

  // ECN (RFC 3168): stamp ECT on data; on an ECE echo, reduce the
  // window to CongCtrlAlg()'s target *without* retransmitting anything,
  // pacing the reduction with PRR exactly as RFC 6937 prescribes for
  // non-loss congestion signals. Off by default (the paper's servers
  // disabled ECN).
  bool ecn = false;

  // Sender-side pacing (sch_fq style): spread transmissions at
  // 1.25 * cwnd/srtt instead of line-rate bursts. Addresses the paper's
  // observation that bursts (RFC 3517's, or any post-stall catch-up) are
  // "hard on the network". Off by default.
  bool pacing = false;

  // RFC 2018 §8 reneging recovery: when an RTO fires with the head of
  // the window SACKed but never cumulatively ACKed — impossible with an
  // honest receiver, so the SACK state is a lie or has been reneged —
  // forget all SACK marks so the data is retransmitted. Without this a
  // reneging receiver (or one false-SACK) wedges the connection: the
  // "SACKed" head is never eligible for retransmission and snd.una never
  // advances. Off reproduces the wedge (torture corpus).
  bool renege_recovery = true;
  // RFC 5961-flavored ACK validation: ignore ACKs acknowledging data
  // never sent (ack > snd.nxt). Without it a corrupted ACK teleports
  // snd.una beyond snd.nxt and the scoreboard melts down.
  bool validate_acks = true;
  // RFC 793 zero-window probing: when the peer's advertised window
  // blocks all sending and nothing is in flight, probe with one byte at
  // a backed-off interval instead of waiting forever. Without it a
  // receiver that shrinks rwnd below one MSS deadlocks the connection
  // (no timer is pending once the flight drains).
  bool zero_window_probes = true;

  // RTT measured during the SYN exchange (zero = none): real stacks enter
  // ESTABLISHED with one sample, which keeps the first RTO sane on long
  // paths.
  sim::Time handshake_rtt = sim::Time::zero();
  int max_rto_backoffs = 12;  // abort the connection beyond this

  uint64_t initial_cwnd_bytes() const {
    return static_cast<uint64_t>(initial_cwnd_segments) * mss;
  }
};

// Every per-connection value field of Sender, each with its fresh-
// connection value. Sender::reset() assigns a fresh SenderState, so the
// initializers below are the one definition of a new connection,
// congestion control and recovery policy included.
struct SenderState {
  explicit SenderState(const SenderConfig& config)
      : cwnd_(config.initial_cwnd_bytes()),
        cc_(make_congestion_control(config.cc, config.mss,
                                    config.gaimd_beta)),
        policy_(make_recovery_policy(config.recovery, config.prr_bound)) {
    metrics_.connections = 1;
  }

  // This connection's counters (tcp/metrics.h).
  Metrics metrics_;

  // ---- hot per-ACK fields ----
  // Every scalar the common process_ack -> try_send cycle reads or
  // writes, declared together so they share a cache-line neighborhood
  // instead of being interleaved with cold episode bookkeeping.
  TcpState state_ = TcpState::kOpen;
  uint64_t snd_una_ = 0;
  uint64_t snd_nxt_ = 0;
  uint64_t write_end_ = 0;
  uint64_t cwnd_;
  uint64_t ssthresh_ = UINT64_MAX;
  uint64_t peer_rwnd_ = UINT64_MAX;
  // Per-sender (not global): connections must stay independent so the
  // experiment harness can run them on worker threads deterministically.
  uint64_t next_segment_id_ = 1;
  bool cwnd_limited_ = true;
  bool aborted_ = false;
  // Busy-time accounting (Table 10) — updated on most ACKs/transmits.
  bool busy_ = false;
  bool in_loss_recovery_ = false;
  sim::Time last_transmit_ = sim::Time::zero();
  sim::Time busy_since_ = sim::Time::zero();
  sim::Time busy_accum_ = sim::Time::zero();
  sim::Time loss_since_ = sim::Time::zero();
  sim::Time loss_accum_ = sim::Time::zero();

  // The window algorithms, as values: CongCtrlAlg() picks ssthresh and
  // open-state growth, the policy paces fast recovery toward it.
  CongestionControl cc_;
  RecoveryPolicy policy_;

  // ---- cold episode/bookkeeping fields ----
  int persist_backoff_ = 0;
  sim::Time next_pace_at_ = sim::Time::zero();

  // Recovery episode state. prior_cwnd_/prior_ssthresh_ hold the window
  // before the reduction that undo reverts: set on entering Recovery
  // (DSACK/Eifel undo) or Loss (F-RTO/Eifel undo of a spurious RTO).
  uint64_t recovery_point_ = 0;
  bool recovery_via_er_ = false;
  bool retransmitted_this_event_ = false;
  uint64_t prior_cwnd_ = 0;
  uint64_t prior_ssthresh_ = 0;
  bool undo_valid_ = false;
  int undo_retrans_ = 0;
  bool spurious_seen_ = false;
  // The open episode's RecoveryLog entry, filled in place and added to
  // the log when the episode closes (Sender::close_episode).
  stats::RecoveryEvent current_event_;
  uint64_t burst_in_progress_ = 0;

  // Loss (RTO) episode state. The flags follow the counters so they
  // share one padded word.
  uint64_t retransmits_since_progress_ = 0;
  uint64_t frto_head_end_ = 0;
  bool rto_head_retransmit_pending_ = false;
  bool frto_check_pending_ = false;
  bool tlp_probe_outstanding_ = false;

  // ECN CWR episode (window reduction without losses, PRR-paced).
  bool cwr_active_ = false;
  uint64_t cwr_point_ = 0;
  bool cwr_flag_pending_ = false;
  core::PrrState cwr_prr_;

  // The last state recorded, so set_state() emits exactly one
  // kStateChange per transition.
  TcpState traced_state_ = TcpState::kOpen;
};

// What the sender reports to its observers (the app, the invariant
// checker, the progress watchdog). Every method is a no-op by default.
// A listener may call back into the sender: ServerApp::on_una_advance
// writes the next response, which transmits.
class SenderEvents {
 public:
  // Every segment put on the wire.
  virtual void on_transmit(uint64_t /*seq*/, uint32_t /*len*/,
                           bool /*retx*/) {}
  // snd.una advanced to `una`.
  virtual void on_una_advance(uint64_t /*una*/) {}
  // An ACK was fully processed: state machine, window regulation and
  // transmissions done. Ignored ACKs (aborted, invalid, ancient) never
  // get here.
  virtual void on_ack_processed(const net::Segment& /*ack*/) {}
  // An RTO fired; `backoffs` already counts this one. During a
  // blackhole no ACKs arrive, so only this event sees the stall.
  virtual void on_rto(uint64_t /*una*/, int /*backoffs*/) {}
  // The sender gave up (max RTO backoffs exceeded).
  virtual void on_abort() {}

 protected:
  ~SenderEvents() = default;
};

class Sender : private SenderState {
 public:
  using SendFn = std::function<void(net::Segment&&)>;

  Sender(sim::Simulator& sim, SenderConfig config, SendFn send,
         stats::RecoveryLog* recovery_log);

  // Pool-recycle: returns the sender to the state a fresh construction
  // with (config, recovery_log) would produce (the constructor runs
  // reset() too), keeping the send callback and all container/timer
  // capacity. The listener list, the profiling tap and the flight-
  // recorder attachment are cleared: they point at per-connection objects
  // (invariant checker, watchdog, app) that die with the connection.
  // Precondition: the owning Simulator has been reset.
  void reset(SenderConfig config, stats::RecoveryLog* recovery_log);

  // ---- application interface ----
  // Appends `bytes` to the send buffer and transmits what the window
  // allows. Byte identities are offsets in one infinite stream.
  void write(uint64_t bytes);
  // Total bytes the application has queued so far.
  uint64_t write_end() const { return write_end_; }
  bool all_acked() const { return snd_una_ >= write_end_; }
  bool aborted() const { return aborted_; }

  // ---- network interface ----
  void on_ack_segment(const net::Segment& ack);

  // ---- observers ----
  // Registers `listener` until the next reset(). Listeners run in
  // registration order; room for the checker, the watchdog, the app and
  // one spare, and one more throws std::length_error.
  static constexpr std::size_t kMaxListeners = 4;
  void add_listener(SenderEvents* listener);
  // Self-profiling tap (obs::SelfProfiler): each on_ack_segment call's
  // wall-clock ns, ignored ACKs included. Null takes no clock readings.
  void set_ack_cost_histogram(util::Log2Histogram* hist) { ack_ns_ = hist; }

  // ---- flight recorder (obs/) ----
  // Attaches (or, with nullptr, detaches) a flight recorder: state
  // transitions, per-ACK window/PRR decisions, (re)transmissions, RTO
  // and undo events, and loss-timer activity are written as TraceRecords
  // tagged with `conn_id`. Pure observation — recording changes no
  // sender behavior, so aggregates are bit-identical with or without it.
  void set_recorder(obs::FlightRecorder* recorder, uint32_t conn_id);
  obs::FlightRecorder* recorder() const { return recorder_; }
  uint32_t conn_id() const { return conn_id_; }

  // ---- inspection (tests, experiments) ----
  TcpState state() const { return state_; }
  uint64_t snd_una() const { return snd_una_; }
  uint64_t snd_nxt() const { return snd_nxt_; }
  uint64_t cwnd_bytes() const { return cwnd_; }
  double cwnd_segments() const {
    return static_cast<double>(cwnd_) / config_.mss;
  }
  uint64_t ssthresh_bytes() const { return ssthresh_; }
  uint64_t pipe_bytes() const { return effective_pipe(); }
  uint64_t peer_rwnd() const { return peer_rwnd_; }
  // Any of the loss-detection timers (RTO, early-retransmit delay, tail
  // loss probe) still armed — must be false once the flow is finished or
  // aborted (the no-timer-leak invariant).
  bool loss_timers_pending() const {
    return rto_timer_.pending() || er_timer_.pending() ||
           tlp_timer_.pending() || persist_timer_.pending();
  }
  // Loss detection: dupacks, dupthresh, reordering, FACK, loss marks.
  const Scoreboard& scoreboard() const { return scoreboard_; }
  const RtoEstimator& rto_estimator() const { return rto_est_; }
  const SenderConfig& config() const { return config_; }
  const RecoveryPolicy& recovery_policy() const { return policy_; }
  uint64_t retransmits() const { return metrics_.retransmits_total; }
  // This connection's counters: the only place the sender writes one.
  // The harness folds it into the arm once, when the connection ends.
  const Metrics& metrics() const { return metrics_; }
  // Cumulative time spent with unacknowledged data outstanding ("network
  // transmit time" in Table 10) and the part spent in Recovery/Loss.
  sim::Time network_transmit_time() const;
  sim::Time loss_recovery_time() const;

 private:
  void process_ack(const net::Segment& ack);
  void try_send();
  bool can_send_new() const;
  // RFC 3517 pipe in SACK mode; the dupack-discounted flight estimate in
  // NewReno (non-SACK) mode.
  uint64_t effective_pipe() const;
  void send_new_segment();
  void transmit(uint64_t start, uint64_t end, bool retx);

  void process_in_open(const AckOutcome& out);
  void process_in_disorder(const AckOutcome& out);
  void process_in_recovery(const AckOutcome& out);
  void process_in_loss(const AckOutcome& out);

  void enter_recovery(uint64_t delivered_on_trigger, bool via_er);
  void exit_recovery();
  // Closes the open Recovery episode into the RecoveryLog: completed (exit
  // or undo) or interrupted by an RTO.
  void close_episode(bool completed, uint64_t cwnd_at_exit,
                     uint64_t pipe_at_exit);

  void check_early_retransmit(const AckOutcome& out);
  void on_er_timer();

  void maybe_arm_tlp();
  void on_tlp_timer();

  void maybe_enter_cwr(const net::Segment& ack);
  void process_cwr(const AckOutcome& out);

  // Pacing gate: true if a segment may go out now; otherwise arms the
  // pacing timer and the caller must stop sending.
  bool pacing_allows_send();
  void note_paced_send();

  void handle_dsack(const AckOutcome& out);
  void check_eifel(const net::Segment& ack, const AckOutcome& out);
  void try_undo();
  void undo_loss_state();

  void on_rto();
  void abort_connection();

  void maybe_arm_persist();
  void on_persist_timer();

  // Indexed, so a listener may re-enter the sender.
  template <typename... Args>
  void notify(void (SenderEvents::*event)(Args...),
              std::type_identity_t<Args>... args) {
    for (std::size_t i = 0; i < num_listeners_; ++i) {
      (listeners_[i]->*event)(args...);
    }
  }

  void grow_cwnd_open(uint64_t acked_bytes);
  // The only writer of state_ after construction: records the transition
  // and keeps the loss-recovery time accounting.
  void set_state(TcpState s);

  sim::Simulator& sim_;
  SenderConfig config_;
  SendFn send_;
  stats::RecoveryLog* recovery_log_;  // may be null

  Scoreboard scoreboard_;
  RtoEstimator rto_est_;
  sim::Timer rto_timer_;
  sim::Timer er_timer_;
  sim::Timer tlp_timer_;
  sim::Timer pacing_timer_;
  sim::Timer persist_timer_;

  // Ring of recently retransmitted ranges for DSACK matching. Outside
  // SenderState so reset() keeps its deque blocks.
  std::deque<std::pair<uint64_t, uint64_t>> retx_history_;

  SenderEvents* listeners_[kMaxListeners] = {};
  util::Log2Histogram* ack_ns_ = nullptr;

  // Flight recorder attachment (null = not tracing).
  obs::FlightRecorder* recorder_ = nullptr;
  uint32_t conn_id_ = 0;
  uint8_t num_listeners_ = 0;
};

}  // namespace prr::tcp
