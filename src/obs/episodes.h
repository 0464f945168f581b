// Recovery-episode analytics (DESIGN.md §9): folds a connection's
// TraceRecord stream into first-class RecoveryEpisode objects — the unit
// the paper's entire evaluation (Tables 3–7) is phrased in. An episode
// runs from kEnterRecovery to whichever of kExitRecovery / in-recovery
// kUndo / kRtoFired closes it, carrying the trigger path, a per-ACK
// ledger of DeliveredData/sndcnt/pipe/ssthresh, the exit window state,
// and the first few post-recovery cwnd samples.
//
// Layering: like the rest of obs/, this sits below tcp/ and net/ — it
// sees only TraceRecords, never the Sender. The derivation is exact by
// construction: every field the stats::RecoveryLog accumulates is also
// present in (or derivable from) the trace records the same code paths
// emit, so an EpisodeTable built from the stream reconciles bit-exactly
// with the RecoveryLog and tcp::Metrics counters (EpisodeSweepTest
// checks this for each recovery arm at several thread counts, tracing on
// and off; StoreLive.EpisodesFromStoreReconcile checks it under chaos).
// The paper-table math has one home, stats::RecoveryLog: the table
// hands its finished rows over as one (EpisodeTable::finished_log).
//
// Aggregation: each worker shard folds its connections into a private
// EpisodeTable; shards merge in connection-id order, so rows, counters
// and log2 histograms are byte-identical to a serial run at any thread
// count — the same determinism contract as ArmResult itself.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics_registry.h"
#include "obs/store/store_format.h"
#include "obs/trace_record.h"
#include "stats/recovery_log.h"

namespace prr::obs {

// How an episode ended. kTruncated = the stream ended (end of run or of
// the captured tail) with recovery still in progress; such episodes are
// counted but excluded from EpisodeTable::finished_log (the
// stats::RecoveryLog records only finished events).
enum class EpisodeExit : uint8_t {
  kCompleted,       // snd.una reached the recovery point (kExitRecovery)
  kUndo,            // DSACK/Eifel undo reverted the episode (kUndo a=0)
  kRtoInterrupted,  // the retransmission timer fired mid-recovery
  kTruncated,       // stream ended mid-episode
};

const char* to_string(EpisodeExit e);

// One row of an episode table: everything Tables 3/5/6/7 need, plus the
// sndcnt/DeliveredData accounting, in a compact trivially-copyable form.
struct EpisodeSummary {
  static constexpr int kPostTrajectory = 8;

  uint32_t conn = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  // Window quantities in bytes at the named instants (RecoveryEvent's
  // exact field set, same units).
  uint64_t pipe_at_start = 0;
  uint64_t ssthresh = 0;       // the reduced target chosen at entry
  uint64_t cwnd_at_start = 0;  // prior cwnd, before the reduction
  uint64_t cwnd_at_exit = 0;   // just prior to the exit adjustment
  uint64_t cwnd_after_exit = 0;
  uint64_t pipe_at_exit = 0;
  uint64_t flight_at_start = 0;  // RecoverFS
  uint64_t recovery_point = 0;
  uint32_t mss = 1;
  EpisodeExit exit = EpisodeExit::kTruncated;
  bool via_early_retransmit = false;
  bool slow_start_after = false;  // exited with cwnd < ssthresh
  // Per-ACK ledger totals (full rows live on RecoveryEpisode::ledger).
  uint64_t acks = 0;
  uint64_t delivered_bytes = 0;  // sum of DeliveredData over the episode
  uint64_t sndcnt_bytes = 0;     // sum of per-ACK send allowances
  uint64_t retransmits = 0;      // segments retransmitted in-episode
  uint64_t bytes_sent_during = 0;
  uint64_t max_burst_segments = 0;
  uint64_t sacks_seen = 0;
  uint64_t dsacks_seen = 0;
  // cwnd (bytes) at the first post-recovery ACKs — the convergence
  // trajectory Table 7 summarizes the first point of.
  uint64_t post_cwnd[kPostTrajectory] = {};
  uint8_t post_cwnd_count = 0;

  bool operator==(const EpisodeSummary&) const = default;
  bool finished() const { return exit != EpisodeExit::kTruncated; }
  // Mirrors stats::RecoveryEvent::completed (undo counts as completed).
  bool completed() const {
    return exit == EpisodeExit::kCompleted || exit == EpisodeExit::kUndo;
  }
  bool interrupted_by_timeout() const {
    return exit == EpisodeExit::kRtoInterrupted;
  }
  sim::Time duration() const {
    return sim::Time::nanoseconds(end_ns - start_ns);
  }
};

// One ledger entry: the sender's decision state after one ACK processed
// during the episode. sndcnt is the window headroom the regulation left
// after this ACK (cwnd - pipe, floored at 0) — what PRR calls sndcnt.
struct EpisodeAck {
  int64_t at_ns = 0;
  uint64_t ack = 0;
  uint64_t cwnd = 0;
  uint64_t pipe = 0;
  uint64_t ssthresh = 0;
  uint64_t delivered = 0;  // DeliveredData for this ACK
  uint64_t sndcnt = 0;
  // PRR internals when the PRR policy annotated this ACK (kPrr record).
  bool prr_valid = false;
  bool prr_proportional = false;
  uint64_t prr_delivered = 0;
  uint64_t prr_out = 0;
  uint64_t recover_fs = 0;

  bool operator==(const EpisodeAck&) const = default;
};

// A fully materialized episode: the summary row plus (when the builder
// keeps ledgers) the per-ACK decision trail.
struct RecoveryEpisode {
  EpisodeSummary summary;
  std::vector<EpisodeAck> ledger;  // empty unless Options::keep_ledgers

  bool operator==(const RecoveryEpisode&) const = default;
};

// Multi-line human-readable dump (episode header, ledger lines, exit and
// post-recovery trajectory) for examples/prr_inspect and quarantine
// forensics.
std::string describe(const RecoveryEpisode& e);
// One-line form of just the summary row.
std::string describe(const EpisodeSummary& s);

// Folds one connection's record stream (oldest first) into episodes.
// Feed every record to on_record(); call finish() at stream end to close
// an in-progress episode as kTruncated. The builder also accumulates the
// stream-level counters Table 3 consumes (retransmits, DSACKs, undo and
// lost-retransmit events), which are not per-episode quantities.
class EpisodeBuilder {
 public:
  struct Options {
    bool keep_ledgers = false;  // store per-ACK rows on each episode
  };

  // Stream-level counters: exact mirrors of the tcp::Metrics fields of
  // the same name, derived purely from trace records.
  struct StreamCounts {
    uint64_t data_segments_sent = 0;
    uint64_t retransmits_total = 0;
    uint64_t fast_retransmits = 0;  // retransmits inside episodes
    uint64_t dsacks_received = 0;
    uint64_t undo_events = 0;
    uint64_t lost_retransmits_detected = 0;
    uint64_t lost_fast_retransmits = 0;
    uint64_t timeouts_total = 0;

    void merge(const StreamCounts& o);
    bool operator==(const StreamCounts&) const = default;
  };

  EpisodeBuilder() = default;
  explicit EpisodeBuilder(Options opts) : opts_(opts) {}

  void on_record(const TraceRecord& r);
  void finish();

  // The record columns on_record reads from a stream fed from reset()
  // whose record types are the set `types_present` (bit t =
  // TraceType(t) occurs). Columns outside it may hold anything without
  // changing what the builder derives; queries decode only these.
  static ColumnMask columns_read(uint32_t types_present);

  const std::vector<RecoveryEpisode>& episodes() const { return episodes_; }
  const StreamCounts& stream() const { return stream_; }
  bool in_episode() const { return in_episode_; }

  // Resets to a fresh stream (episodes, counters, in-progress state).
  void reset();

 private:
  void begin(const TraceRecord& r);
  void close(EpisodeExit exit, int64_t end_ns);

  Options opts_;
  std::vector<RecoveryEpisode> episodes_;
  StreamCounts stream_;
  RecoveryEpisode current_;
  bool in_episode_ = false;
  // Post-recovery trajectory capture target (last finished episode).
  bool capture_post_ = false;
};

// Per-arm aggregation of episode rows: deterministic merge across worker
// shards (rows append in connection-id order; counters sum; histograms
// bucket-sum), the finished rows as a stats::RecoveryLog for the paper
// tables, and log2-histogram percentiles for the JSON/CLI summaries.
class EpisodeTable {
 public:
  // Appends everything the builder derived for one connection. Called in
  // connection order within a shard, so rows are emission-ordered.
  void fold(const EpisodeBuilder& b);
  void merge(const EpisodeTable& other);

  const std::vector<EpisodeSummary>& rows() const { return rows_; }
  const EpisodeBuilder::StreamCounts& stream() const { return stream_; }

  // Counts. total() includes truncated episodes and equals the
  // tcp::Metrics fast_recovery_events counter; finished() equals
  // stats::RecoveryLog::count().
  std::size_t total() const { return rows_.size(); }
  std::size_t finished() const { return finished_; }
  std::size_t truncated() const { return rows_.size() - finished_; }

  // The finished rows, in order, as the (unbounded) stats::RecoveryLog
  // the sender appends them to: the paper tables read its accessors.
  stats::RecoveryLog finished_log() const;

  // Log2 summaries (built incrementally; percentiles via
  // LogHistogram::quantile interpolation).
  const LogHistogram& duration_us() const { return duration_us_; }
  const LogHistogram& retransmits_per_episode() const { return retx_; }
  const LogHistogram& acks_per_episode() const { return acks_; }
  const LogHistogram& sndcnt_per_episode() const { return sndcnt_; }

  // {"episodes":N,...,"histograms":{...p50/p95/p99...}} — byte-stable.
  std::string to_json() const;
  // Human-readable per-arm summary block for examples/prr_inspect.
  std::string summary_string() const;

 private:
  std::vector<EpisodeSummary> rows_;
  EpisodeBuilder::StreamCounts stream_;
  std::size_t finished_ = 0;
  LogHistogram duration_us_;
  LogHistogram retx_;
  LogHistogram acks_;
  LogHistogram sndcnt_;
};

}  // namespace prr::obs
