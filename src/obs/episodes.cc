#include "obs/episodes.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "obs/json.h"

namespace prr::obs {

namespace {

// TcpState::kRecovery as it appears in TraceRecord a/b fields. obs/
// cannot include tcp/ headers (layering); the correspondence is pinned
// by the static_asserts in obs/instrument.cc.
constexpr unsigned kStateRecovery = 2;

}  // namespace

const char* to_string(EpisodeExit e) {
  switch (e) {
    case EpisodeExit::kCompleted: return "completed";
    case EpisodeExit::kUndo: return "undo";
    case EpisodeExit::kRtoInterrupted: return "rto_interrupted";
    case EpisodeExit::kTruncated: return "truncated";
  }
  return "?";
}

void EpisodeBuilder::StreamCounts::merge(const StreamCounts& o) {
  data_segments_sent += o.data_segments_sent;
  retransmits_total += o.retransmits_total;
  fast_retransmits += o.fast_retransmits;
  dsacks_received += o.dsacks_received;
  undo_events += o.undo_events;
  lost_retransmits_detected += o.lost_retransmits_detected;
  lost_fast_retransmits += o.lost_fast_retransmits;
  timeouts_total += o.timeouts_total;
}

void EpisodeBuilder::begin(const TraceRecord& r) {
  current_ = RecoveryEpisode{};
  EpisodeSummary& s = current_.summary;
  s.conn = r.conn;
  s.start_ns = r.at_ns;
  s.flight_at_start = r.f[0];
  s.ssthresh = r.f[1];
  s.pipe_at_start = r.f[2];
  s.cwnd_at_start = r.f[3];
  s.recovery_point = r.f[4];
  s.mss = r.b != 0 ? r.b : 1;
  s.via_early_retransmit = r.a != 0;
  in_episode_ = true;
  capture_post_ = false;
}

void EpisodeBuilder::close(EpisodeExit exit, int64_t end_ns) {
  current_.summary.exit = exit;
  current_.summary.end_ns = end_ns;
  episodes_.push_back(std::move(current_));
  current_ = RecoveryEpisode{};
  in_episode_ = false;
  // Start collecting the post-recovery cwnd trajectory for the episode
  // just closed (kTruncated means the stream ended — nothing follows).
  capture_post_ = exit != EpisodeExit::kTruncated;
}

// Episodes close by ends_recovery_episode()'s rule (trace_record.h),
// applied case by case so each record takes one switch dispatch.
void EpisodeBuilder::on_record(const TraceRecord& r) {
  EpisodeSummary& s = current_.summary;
  switch (r.type) {
    case TraceType::kEnterRecovery:
      // A new entry while one is open means the exit record was lost
      // (e.g. reconstructing from a ring tail); close defensively.
      if (in_episode_) close(EpisodeExit::kTruncated, r.at_ns);
      begin(r);
      break;

    case TraceType::kAck:
      if (in_episode_ && r.a == kStateRecovery) {
        ++s.acks;
        s.delivered_bytes += r.f[4];
        const uint64_t sndcnt = r.f[1] > r.f[2] ? r.f[1] - r.f[2] : 0;
        s.sndcnt_bytes += sndcnt;
        if (opts_.keep_ledgers) {
          EpisodeAck row;
          row.at_ns = r.at_ns;
          row.ack = r.f[0];
          row.cwnd = r.f[1];
          row.pipe = r.f[2];
          row.ssthresh = r.f[3];
          row.delivered = r.f[4];
          row.sndcnt = sndcnt;
          current_.ledger.push_back(row);
        }
      } else if (capture_post_ && !episodes_.empty()) {
        EpisodeSummary& last = episodes_.back().summary;
        if (last.post_cwnd_count < EpisodeSummary::kPostTrajectory) {
          last.post_cwnd[last.post_cwnd_count++] = r.f[1];
        } else {
          capture_post_ = false;
        }
      }
      break;

    case TraceType::kPrr:
      // Emitted right after the kAck record for the same ACK; annotate
      // the latest ledger row with the PRR internals.
      if (in_episode_ && opts_.keep_ledgers && !current_.ledger.empty()) {
        EpisodeAck& row = current_.ledger.back();
        row.prr_valid = true;
        row.prr_proportional = r.a != 0;
        row.prr_delivered = r.f[0];
        row.prr_out = r.f[1];
        row.recover_fs = r.f[2];
      }
      break;

    case TraceType::kTransmit:
      ++stream_.data_segments_sent;
      if (r.a != 0) {
        ++stream_.retransmits_total;
        if (r.b == kStateRecovery) ++stream_.fast_retransmits;
      }
      if (in_episode_ && r.b == kStateRecovery) {
        if (r.a != 0) ++s.retransmits;
        s.bytes_sent_during += r.f[1];
      }
      break;

    case TraceType::kSackSeen:
      if (r.a != 0) {
        ++stream_.dsacks_received;
        if (in_episode_) ++s.dsacks_seen;
      } else if (in_episode_) {
        ++s.sacks_seen;
      }
      break;

    case TraceType::kLostRetransmit:
      stream_.lost_retransmits_detected += r.f[0];
      stream_.lost_fast_retransmits += r.f[1];
      break;

    case TraceType::kExitRecovery:
      if (in_episode_) {
        s.cwnd_after_exit = r.f[0];
        s.pipe_at_exit = r.f[1];
        // The sender's own tallies are authoritative; they equal the
        // stream-derived counts whenever the whole episode was seen,
        // and repair them when the head was cut off by the ring.
        s.retransmits = r.f[2];
        s.bytes_sent_during = r.f[3];
        s.cwnd_at_exit = r.f[4];
        s.max_burst_segments = r.f[5];
        s.slow_start_after = r.f[0] < s.ssthresh;
        close(EpisodeExit::kCompleted, r.at_ns);
      }
      break;

    case TraceType::kUndo:
      ++stream_.undo_events;
      // a == 0: DSACK/Eifel undo — ends the episode when one is open
      // (the sender restores cwnd/ssthresh and leaves recovery).
      // a == 1: spurious-RTO undo, outside fast recovery by definition.
      if (r.a == 0 && in_episode_) {
        s.cwnd_at_exit = r.f[0];
        s.cwnd_after_exit = r.f[0];
        s.pipe_at_exit = r.f[2];
        s.max_burst_segments = r.f[3];
        // The sender restores ssthresh before judging slow-start, so
        // compare against the restored value carried on the record.
        s.slow_start_after = r.f[0] < r.f[1];
        close(EpisodeExit::kUndo, r.at_ns);
      }
      break;

    case TraceType::kRtoFired:
      ++stream_.timeouts_total;
      if (in_episode_) {
        // Mirrors Sender::close_episode on the RTO path: cwnd is still
        // the pre-reset value and ssthresh still the entry value, and
        // the exit-window fields stay unset.
        s.max_burst_segments = r.f[5];
        s.slow_start_after = r.f[2] < s.ssthresh;
        close(EpisodeExit::kRtoInterrupted, r.at_ns);
      }
      break;

    default:
      break;
  }
}

// Outside an episode on_record reads only kTransmit's a and b,
// kSackSeen's and kUndo's a, and kLostRetransmit's f0 and f1. Everything
// else it reads needs an episode open, and only kEnterRecovery opens one.
ColumnMask EpisodeBuilder::columns_read(uint32_t types_present) {
  const auto has = [types_present](TraceType t) {
    return (types_present >> static_cast<uint32_t>(t) & 1u) != 0;
  };
  if (has(TraceType::kEnterRecovery)) return kAllColumns;
  ColumnMask columns = kColumnType;
  if (has(TraceType::kTransmit)) columns |= kColumnA | kColumnB;
  if (has(TraceType::kSackSeen) || has(TraceType::kUndo)) {
    columns |= kColumnA;
  }
  if (has(TraceType::kLostRetransmit)) {
    columns |= kColumnF0 | (kColumnF0 << 1);
  }
  return columns;
}

void EpisodeBuilder::finish() {
  if (in_episode_) {
    close(EpisodeExit::kTruncated, current_.summary.start_ns);
  }
  capture_post_ = false;
}

void EpisodeBuilder::reset() {
  episodes_.clear();
  stream_ = StreamCounts{};
  current_ = RecoveryEpisode{};
  in_episode_ = false;
  capture_post_ = false;
}

void EpisodeTable::fold(const EpisodeBuilder& b) {
  for (const RecoveryEpisode& e : b.episodes()) {
    const EpisodeSummary& s = e.summary;
    rows_.push_back(s);
    if (!s.finished()) continue;
    ++finished_;
    duration_us_.record(static_cast<uint64_t>(
        std::max<int64_t>(0, wrapping_sub(s.end_ns, s.start_ns) / 1000)));
    retx_.record(s.retransmits);
    acks_.record(s.acks);
    sndcnt_.record(s.sndcnt_bytes);
  }
  stream_.merge(b.stream());
}

void EpisodeTable::merge(const EpisodeTable& other) {
  rows_.insert(rows_.end(), other.rows_.begin(), other.rows_.end());
  stream_.merge(other.stream_);
  finished_ += other.finished_;
  duration_us_.merge(other.duration_us_);
  retx_.merge(other.retx_);
  acks_.merge(other.acks_);
  sndcnt_.merge(other.sndcnt_);
}

namespace {

// A finished row as the sender's stats::RecoveryLog records it.
stats::RecoveryEvent recovery_event(const EpisodeSummary& s) {
  stats::RecoveryEvent e;
  e.start = sim::Time::nanoseconds(s.start_ns);
  e.end = sim::Time::nanoseconds(s.end_ns);
  e.pipe_at_start = s.pipe_at_start;
  e.ssthresh = s.ssthresh;
  e.cwnd_at_start = s.cwnd_at_start;
  e.cwnd_at_exit = s.cwnd_at_exit;
  e.cwnd_after_exit = s.cwnd_after_exit;
  e.pipe_at_exit = s.pipe_at_exit;
  e.mss = s.mss;
  e.retransmits = s.retransmits;
  e.bytes_sent_during = s.bytes_sent_during;
  e.max_burst_segments = s.max_burst_segments;
  e.interrupted_by_timeout = s.interrupted_by_timeout();
  e.completed = s.completed();
  e.slow_start_after = s.slow_start_after;
  return e;
}

}  // namespace

stats::RecoveryLog EpisodeTable::finished_log() const {
  stats::RecoveryLog log;
  for (const auto& s : rows_) {
    if (s.finished()) log.add(recovery_event(s));
  }
  return log;
}

namespace {

void append_hist_json(std::string& out, const char* name,
                      const LogHistogram& h) {
  out += json_quote(name) + ":{";
  out += "\"count\":" + std::to_string(h.count());
  out += ",\"mean\":" + json_double(h.mean());
  out += ",\"p50\":" + json_double(h.p50());
  out += ",\"p95\":" + json_double(h.p95());
  out += ",\"p99\":" + json_double(h.p99());
  out += "}";
}

}  // namespace

std::string EpisodeTable::to_json() const {
  std::string out = "{";
  out += "\"episodes\":" + std::to_string(total());
  out += ",\"finished\":" + std::to_string(finished());
  out += ",\"truncated\":" + std::to_string(truncated());
  std::size_t completed = 0, undone = 0, rto = 0;
  for (const auto& s : rows_) {
    completed += s.exit == EpisodeExit::kCompleted;
    undone += s.exit == EpisodeExit::kUndo;
    rto += s.exit == EpisodeExit::kRtoInterrupted;
  }
  out += ",\"completed\":" + std::to_string(completed);
  out += ",\"undo\":" + std::to_string(undone);
  out += ",\"rto_interrupted\":" + std::to_string(rto);
  out += ",\"stream\":{";
  out += "\"data_segments_sent\":" +
         std::to_string(stream_.data_segments_sent);
  out += ",\"retransmits_total\":" +
         std::to_string(stream_.retransmits_total);
  out += ",\"fast_retransmits\":" + std::to_string(stream_.fast_retransmits);
  out += ",\"dsacks_received\":" + std::to_string(stream_.dsacks_received);
  out += ",\"undo_events\":" + std::to_string(stream_.undo_events);
  out += ",\"lost_retransmits_detected\":" +
         std::to_string(stream_.lost_retransmits_detected);
  out += ",\"lost_fast_retransmits\":" +
         std::to_string(stream_.lost_fast_retransmits);
  out += ",\"timeouts_total\":" + std::to_string(stream_.timeouts_total);
  out += "},\"histograms\":{";
  append_hist_json(out, "duration_us", duration_us_);
  out += ",";
  append_hist_json(out, "retransmits", retx_);
  out += ",";
  append_hist_json(out, "acks", acks_);
  out += ",";
  append_hist_json(out, "sndcnt_bytes", sndcnt_);
  out += "}}";
  return out;
}

std::string EpisodeTable::summary_string() const {
  char buf[256];
  std::string out;
  std::size_t completed = 0, undone = 0, rto = 0;
  for (const auto& s : rows_) {
    completed += s.exit == EpisodeExit::kCompleted;
    undone += s.exit == EpisodeExit::kUndo;
    rto += s.exit == EpisodeExit::kRtoInterrupted;
  }
  std::snprintf(buf, sizeof(buf),
                "episodes: %zu (completed %zu, undo %zu, rto %zu, "
                "truncated %zu)\n",
                total(), completed, undone, rto, truncated());
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "duration_us: p50 %.0f p95 %.0f p99 %.0f\n",
                duration_us_.p50(), duration_us_.p95(), duration_us_.p99());
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "retransmits/episode: mean %.2f p50 %.0f p95 %.0f p99 %.0f\n",
                retx_.mean(), retx_.p50(), retx_.p95(), retx_.p99());
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "acks/episode: mean %.2f p50 %.0f p95 %.0f p99 %.0f\n",
                acks_.mean(), acks_.p50(), acks_.p95(), acks_.p99());
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "stream: sent %" PRIu64 " retx %" PRIu64 " (fast %" PRIu64
                ") dsacks %" PRIu64 " undo %" PRIu64 " lost-retx %" PRIu64
                " timeouts %" PRIu64 "\n",
                stream_.data_segments_sent, stream_.retransmits_total,
                stream_.fast_retransmits, stream_.dsacks_received,
                stream_.undo_events, stream_.lost_retransmits_detected,
                stream_.timeouts_total);
  out += buf;
  return out;
}

std::string describe(const EpisodeSummary& s) {
  char buf[320];
  std::snprintf(
      buf, sizeof(buf),
      "conn %u %10.3fms +%.3fms %-15s%s pipe0=%" PRIu64 " ssthresh=%" PRIu64
      " cwnd0=%" PRIu64 " exit_cwnd=%" PRIu64 " retx=%" PRIu64
      " acks=%" PRIu64 "%s",
      s.conn, static_cast<double>(s.start_ns) / 1e6,
      static_cast<double>(s.end_ns - s.start_ns) / 1e6, to_string(s.exit),
      s.via_early_retransmit ? " (ER)" : "", s.pipe_at_start, s.ssthresh,
      s.cwnd_at_start, s.cwnd_after_exit, s.retransmits, s.acks,
      s.slow_start_after ? " slow-start-after" : "");
  return std::string(buf);
}

std::string describe(const RecoveryEpisode& e) {
  const EpisodeSummary& s = e.summary;
  std::string out = describe(s);
  out += '\n';
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "  entry: flight=%" PRIu64 " recovery_point=%" PRIu64
                " mss=%u trigger=%s\n",
                s.flight_at_start, s.recovery_point, s.mss,
                s.via_early_retransmit ? "early-retransmit" : "dupthresh");
  out += buf;
  for (const EpisodeAck& a : e.ledger) {
    std::snprintf(buf, sizeof(buf),
                  "  %10.3fms ack=%" PRIu64 " cwnd=%" PRIu64 " pipe=%" PRIu64
                  " delivered=%" PRIu64 " sndcnt=%" PRIu64,
                  static_cast<double>(a.at_ns) / 1e6, a.ack, a.cwnd, a.pipe,
                  a.delivered, a.sndcnt);
    out += buf;
    if (a.prr_valid) {
      std::snprintf(buf, sizeof(buf),
                    " [prr %s prr_delivered=%" PRIu64 " prr_out=%" PRIu64
                    " recover_fs=%" PRIu64 "]",
                    a.prr_proportional ? "proportional" : "reduction-bound",
                    a.prr_delivered, a.prr_out, a.recover_fs);
      out += buf;
    }
    out += '\n';
  }
  std::snprintf(buf, sizeof(buf),
                "  exit: %s cwnd_at_exit=%" PRIu64 " cwnd_after=%" PRIu64
                " pipe=%" PRIu64 " delivered=%" PRIu64 " sndcnt=%" PRIu64
                " max_burst=%" PRIu64 "\n",
                to_string(s.exit), s.cwnd_at_exit, s.cwnd_after_exit,
                s.pipe_at_exit, s.delivered_bytes, s.sndcnt_bytes,
                s.max_burst_segments);
  out += buf;
  if (s.post_cwnd_count > 0) {
    out += "  post-recovery cwnd:";
    for (uint8_t i = 0; i < s.post_cwnd_count; ++i) {
      std::snprintf(buf, sizeof(buf), " %" PRIu64, s.post_cwnd[i]);
      out += buf;
    }
    out += '\n';
  }
  return out;
}

}  // namespace prr::obs
