#include "obs/snapshot.h"

#include <cstdio>
#include <string>

#include "obs/json.h"
#include "tcp/sender.h"

namespace prr::obs {

namespace {

const char* cc_name(tcp::CcKind cc) {
  switch (cc) {
    case tcp::CcKind::kNewReno: return "newreno";
    case tcp::CcKind::kCubic: return "cubic";
    case tcp::CcKind::kGaimd: return "gaimd";
    case tcp::CcKind::kBinomial: return "binomial";
  }
  return "?";
}

const char* recovery_name(tcp::RecoveryKind r) {
  switch (r) {
    case tcp::RecoveryKind::kRfc3517: return "rfc3517";
    case tcp::RecoveryKind::kLinuxRateHalving: return "rate_halving";
    case tcp::RecoveryKind::kPrr: return "prr";
  }
  return "?";
}

}  // namespace

std::string snapshot(const tcp::Sender& s, uint32_t conn_id) {
  const tcp::SenderConfig& cfg = s.config();
  const tcp::RtoEstimator& rto = s.rto_estimator();
  char buf[512];
  std::string out;

  std::snprintf(buf, sizeof(buf), "conn %u state:%s%s\n", conn_id,
                tcp::to_string(s.state()), s.aborted() ? " ABORTED" : "");
  out += buf;

  std::snprintf(buf, sizeof(buf),
                "  %s %s rto:%.0fms rtt:%.1f/%.1fms mss:%u dupthresh:%d%s\n",
                cc_name(cfg.cc), recovery_name(cfg.recovery),
                rto.rto().ms_d(), rto.srtt().ms_d(), rto.rttvar().ms_d(),
                cfg.mss, s.scoreboard().dupthresh(),
                s.scoreboard().reordering_seen() ? " reordering" : "");
  out += buf;

  std::snprintf(buf, sizeof(buf),
                "  cwnd:%.1f ssthresh:%llu pipe:%llu una:%llu nxt:%llu "
                "rwnd:%llu\n",
                s.cwnd_segments(),
                static_cast<unsigned long long>(s.ssthresh_bytes()),
                static_cast<unsigned long long>(s.pipe_bytes()),
                static_cast<unsigned long long>(s.snd_una()),
                static_cast<unsigned long long>(s.snd_nxt()),
                static_cast<unsigned long long>(s.peer_rwnd()));
  out += buf;

  const tcp::Scoreboard& sb = s.scoreboard();
  std::snprintf(buf, sizeof(buf),
                "  sacked:%d lost:%d retrans:%llu timers:%s\n",
                sb.sacked_segment_count(), sb.lost_segment_count(),
                static_cast<unsigned long long>(s.retransmits()),
                s.loss_timers_pending() ? "armed" : "none");
  out += buf;
  return out;
}

std::string snapshot_json(const tcp::Sender& s, uint32_t conn_id) {
  const tcp::SenderConfig& cfg = s.config();
  const tcp::RtoEstimator& rto = s.rto_estimator();
  const tcp::Scoreboard& sb = s.scoreboard();
  std::string out = "{";
  out += "\"conn\":" + std::to_string(conn_id);
  out += ",\"state\":" + json_quote(tcp::to_string(s.state()));
  out += ",\"aborted\":" + std::string(s.aborted() ? "true" : "false");
  out += ",\"cc\":" + json_quote(cc_name(cfg.cc));
  out += ",\"recovery\":" + json_quote(recovery_name(cfg.recovery));
  out += ",\"rto_ms\":" + json_double(rto.rto().ms_d());
  out += ",\"srtt_ms\":" + json_double(rto.srtt().ms_d());
  out += ",\"rttvar_ms\":" + json_double(rto.rttvar().ms_d());
  out += ",\"backoffs\":" + std::to_string(rto.backoff_count());
  out += ",\"mss\":" + std::to_string(cfg.mss);
  out += ",\"dupthresh\":" + std::to_string(sb.dupthresh());
  out += ",\"reordering\":" +
         std::string(sb.reordering_seen() ? "true" : "false");
  out += ",\"cwnd_bytes\":" + std::to_string(s.cwnd_bytes());
  out += ",\"ssthresh_bytes\":" + std::to_string(s.ssthresh_bytes());
  out += ",\"pipe_bytes\":" + std::to_string(s.pipe_bytes());
  out += ",\"snd_una\":" + std::to_string(s.snd_una());
  out += ",\"snd_nxt\":" + std::to_string(s.snd_nxt());
  out += ",\"peer_rwnd\":" + std::to_string(s.peer_rwnd());
  out += ",\"sacked_segments\":" + std::to_string(sb.sacked_segment_count());
  out += ",\"lost_segments\":" + std::to_string(sb.lost_segment_count());
  out += ",\"retransmits\":" + std::to_string(s.retransmits());
  out += ",\"timers_pending\":" +
         std::string(s.loss_timers_pending() ? "true" : "false");
  out += "}";
  return out;
}

}  // namespace prr::obs
