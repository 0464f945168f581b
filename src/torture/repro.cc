#include "torture/repro.h"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "net/fault_schedule.h"
#include "util/checked_write.h"
#include "util/parse_number.h"

namespace prr::torture {

namespace {

using util::parse_i64;
using util::parse_int;
using util::parse_u64;

void kv(std::string& out, const char* key, const std::string& value) {
  out += key;
  out += " = ";
  out += value;
  out += '\n';
}

std::string fmt_u64(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%" PRIu64, v);
  return buf;
}

std::string fmt_i64(int64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%" PRId64, v);
  return buf;
}

std::string fmt_f(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// Whole string or nothing, like the util/parse_number.h integers.
bool parse_f(const std::string& s, double& v) {
  char* end = nullptr;
  v = std::strtod(s.c_str(), &end);
  return !s.empty() && end == s.c_str() + s.size();
}

// A probability: finite and in [0, 1] (NaN fails both comparisons).
bool parse_prob(const std::string& s, double& v) {
  return parse_f(s, v) && v >= 0.0 && v <= 1.0;
}

bool parse_bool(const std::string& s, bool& v) {
  if (s == "1" || s == "true") { v = true; return true; }
  if (s == "0" || s == "false") { v = false; return true; }
  return false;
}

const char* fault_kind_name(net::FaultKind k) { return net::to_string(k); }

bool parse_fault_kind(const std::string& s, net::FaultKind& k) {
  using net::FaultKind;
  if (s == "blackout") k = FaultKind::kBlackout;
  else if (s == "bw_shift") k = FaultKind::kBandwidthShift;
  else if (s == "rtt_spike") k = FaultKind::kRttSpike;
  else if (s == "queue_resize") k = FaultKind::kQueueResize;
  else if (s == "ack_outage") k = FaultKind::kAckOutage;
  else if (s == "recv_stall") k = FaultKind::kReceiverStall;
  else return false;
  return true;
}

std::vector<std::string> split_ws(const std::string& s) {
  std::vector<std::string> out;
  std::istringstream in(s);
  std::string tok;
  while (in >> tok) out.push_back(tok);
  return out;
}

}  // namespace

std::string to_text(const ReproCase& c) {
  const workload::ConnectionSample& s = c.sample;
  const net::MisbehaviorConfig& m = s.misbehavior;
  std::string out = "prr-repro v1\n";
  kv(out, "name", c.name);
  kv(out, "arm", c.arm);
  kv(out, "seed", fmt_u64(c.seed));
  kv(out, "connection", fmt_u64(c.connection));
  kv(out, "limit_ns", fmt_i64(c.limit.ns()));
  kv(out, "watchdog_rto_backoffs", fmt_i64(c.watchdog_rto_backoffs));
  kv(out, "max_rto_backoffs", fmt_i64(c.max_rto_backoffs));
  kv(out, "renege_recovery", c.renege_recovery ? "1" : "0");
  kv(out, "validate_acks", c.validate_acks ? "1" : "0");
  kv(out, "zero_window_probes", c.zero_window_probes ? "1" : "0");

  kv(out, "rtt_ns", fmt_i64(s.rtt.ns()));
  kv(out, "bandwidth_bps", fmt_i64(s.bandwidth.bits_per_second()));
  kv(out, "queue_packets", fmt_u64(s.queue_packets));
  kv(out, "loss_p_good_to_bad", fmt_f(s.loss.p_good_to_bad));
  kv(out, "loss_p_bad_to_good", fmt_f(s.loss.p_bad_to_good));
  kv(out, "loss_in_good", fmt_f(s.loss.loss_in_good));
  kv(out, "loss_in_bad", fmt_f(s.loss.loss_in_bad));
  kv(out, "outages", s.outages ? "1" : "0");
  kv(out, "outage_mean_between_ns", fmt_i64(s.outage.mean_time_between.ns()));
  kv(out, "outage_mean_duration_ns", fmt_i64(s.outage.mean_duration.ns()));
  kv(out, "ack_loss_prob", fmt_f(s.ack_loss_prob));
  kv(out, "ack_stretch", fmt_u64(s.ack_stretch));
  kv(out, "ack_stretch_flush_ns", fmt_i64(s.ack_stretch_flush.ns()));
  kv(out, "reorder_prob", fmt_f(s.reorder_prob));
  kv(out, "reorder_min_ns", fmt_i64(s.reorder_min.ns()));
  kv(out, "reorder_max_ns", fmt_i64(s.reorder_max.ns()));
  kv(out, "client_sack", s.client_sack ? "1" : "0");
  kv(out, "client_ecn", s.client_ecn ? "1" : "0");
  kv(out, "ecn_mark_threshold", fmt_u64(s.ecn_mark_threshold));
  kv(out, "client_timestamps", s.client_timestamps ? "1" : "0");
  kv(out, "client_dsack", s.client_dsack ? "1" : "0");
  kv(out, "client_abandons", s.client_abandons ? "1" : "0");
  kv(out, "abandon_after_ns", fmt_i64(s.abandon_after.ns()));
  kv(out, "renege_at_ns", fmt_i64(s.renege_at.ns()));

  kv(out, "mis_lie_sack_prob", fmt_f(m.lie_sack_probability));
  kv(out, "mis_lie_span_bytes", fmt_u64(m.lie_span_bytes));
  kv(out, "mis_dup_sack_prob", fmt_f(m.dup_sack_probability));
  kv(out, "mis_suppress_at_ns", fmt_i64(m.suppress_at.ns()));
  kv(out, "mis_suppress_duration_ns", fmt_i64(m.suppress_duration.ns()));
  kv(out, "mis_divide_factor", fmt_u64(m.divide_factor));
  kv(out, "mis_divide_step_bytes", fmt_u64(m.divide_step_bytes));
  kv(out, "mis_dup_ack_prob", fmt_f(m.dup_ack_probability));
  kv(out, "mis_reorder_prob", fmt_f(m.reorder_probability));
  kv(out, "mis_reorder_flush_ns", fmt_i64(m.reorder_flush_timeout.ns()));
  kv(out, "mis_shrink_at_ns", fmt_i64(m.shrink_at.ns()));
  kv(out, "mis_shrink_duration_ns", fmt_i64(m.shrink_duration.ns()));
  kv(out, "mis_shrink_rwnd_bytes", fmt_u64(m.shrink_rwnd_bytes));
  kv(out, "mis_corrupt_prob", fmt_f(m.corrupt_probability));

  for (const net::FaultEvent& e : s.faults.events()) {
    char buf[160];
    std::snprintf(buf, sizeof buf, "%s %" PRId64 " %" PRId64 " %.17g %zu",
                  fault_kind_name(e.kind), e.at.ns(), e.duration.ns(),
                  e.scale, e.queue_limit_packets);
    kv(out, "fault", buf);
  }
  for (const http::ResponseSpec& r : s.responses) {
    char buf[200];
    std::snprintf(buf, sizeof buf,
                  "%" PRIu64 " %" PRId64 " %" PRIu64 " %" PRIu64 " %" PRId64,
                  r.bytes, r.gap_before.ns(), r.burst_bytes, r.chunk_bytes,
                  r.chunk_interval.ns());
    kv(out, "response", buf);
  }
  for (const std::string& e : c.expect) kv(out, "expect", e);
  return out;
}

bool from_text(const std::string& text, ReproCase& out, std::string* error) {
  auto fail = [error](const std::string& msg) {
    if (error) *error = msg;
    return false;
  };
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line) || line != "prr-repro v1") {
    return fail("missing 'prr-repro v1' header");
  }
  ReproCase c;
  c.sample.responses.clear();
  int lineno = 1;
  while (std::getline(in, line)) {
    ++lineno;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) {
      if (split_ws(line).empty()) continue;  // blank
      return fail("line " + std::to_string(lineno) + ": expected key = value");
    }
    std::vector<std::string> keys = split_ws(line.substr(0, eq));
    if (keys.size() != 1) {
      return fail("line " + std::to_string(lineno) + ": bad key");
    }
    const std::string& key = keys[0];
    std::string value = line.substr(eq + 1);
    // Trim surrounding whitespace.
    const std::size_t b = value.find_first_not_of(" \t\r");
    const std::size_t e = value.find_last_not_of(" \t\r");
    value = b == std::string::npos ? "" : value.substr(b, e - b + 1);

    workload::ConnectionSample& s = c.sample;
    net::MisbehaviorConfig& m = s.misbehavior;
    bool ok = true;
    int64_t i = 0;
    bool bv = false;
    auto t = [&i] { return sim::Time::nanoseconds(i); };

    if (key == "name") c.name = value;
    else if (key == "arm") c.arm = value;
    else if (key == "seed") ok = parse_u64(value, c.seed);
    else if (key == "connection") ok = parse_u64(value, c.connection);
    else if (key == "limit_ns") { ok = parse_i64(value, i); c.limit = t(); }
    else if (key == "watchdog_rto_backoffs") {
      ok = parse_int(value, c.watchdog_rto_backoffs);
    } else if (key == "max_rto_backoffs") {
      ok = parse_int(value, c.max_rto_backoffs);
    } else if (key == "renege_recovery") {
      ok = parse_bool(value, c.renege_recovery);
    } else if (key == "validate_acks") {
      ok = parse_bool(value, c.validate_acks);
    } else if (key == "zero_window_probes") {
      ok = parse_bool(value, c.zero_window_probes);
    } else if (key == "rtt_ns") { ok = parse_i64(value, i); s.rtt = t(); }
    else if (key == "bandwidth_bps") {
      // A link with no bandwidth divides by zero on the first packet.
      ok = parse_i64(value, i) && i > 0; s.bandwidth = util::DataRate::bps(i);
    } else if (key == "queue_packets") {
      ok = parse_int(value, s.queue_packets);
    } else if (key == "loss_p_good_to_bad") {
      ok = parse_prob(value, s.loss.p_good_to_bad);
    } else if (key == "loss_p_bad_to_good") {
      ok = parse_prob(value, s.loss.p_bad_to_good);
    } else if (key == "loss_in_good") {
      ok = parse_prob(value, s.loss.loss_in_good);
    } else if (key == "loss_in_bad") {
      ok = parse_prob(value, s.loss.loss_in_bad);
    } else if (key == "outages") { ok = parse_bool(value, bv); s.outages = bv; }
    else if (key == "outage_mean_between_ns") {
      ok = parse_i64(value, i); s.outage.mean_time_between = t();
    } else if (key == "outage_mean_duration_ns") {
      ok = parse_i64(value, i); s.outage.mean_duration = t();
    } else if (key == "ack_loss_prob") {
      ok = parse_prob(value, s.ack_loss_prob);
    } else if (key == "ack_stretch") {
      ok = parse_int(value, s.ack_stretch);
    } else if (key == "ack_stretch_flush_ns") {
      ok = parse_i64(value, i); s.ack_stretch_flush = t();
    } else if (key == "reorder_prob") {
      ok = parse_prob(value, s.reorder_prob);
    } else if (key == "reorder_min_ns") {
      ok = parse_i64(value, i); s.reorder_min = t();
    } else if (key == "reorder_max_ns") {
      ok = parse_i64(value, i); s.reorder_max = t();
    } else if (key == "client_sack") { ok = parse_bool(value, s.client_sack); }
    else if (key == "client_ecn") { ok = parse_bool(value, s.client_ecn); }
    else if (key == "ecn_mark_threshold") {
      ok = parse_int(value, s.ecn_mark_threshold);
    } else if (key == "client_timestamps") {
      ok = parse_bool(value, s.client_timestamps);
    } else if (key == "client_dsack") {
      ok = parse_bool(value, s.client_dsack);
    } else if (key == "client_abandons") {
      ok = parse_bool(value, s.client_abandons);
    } else if (key == "abandon_after_ns") {
      ok = parse_i64(value, i); s.abandon_after = t();
    } else if (key == "renege_at_ns") {
      ok = parse_i64(value, i); s.renege_at = t();
    } else if (key == "mis_lie_sack_prob") {
      ok = parse_prob(value, m.lie_sack_probability);
    } else if (key == "mis_lie_span_bytes") {
      ok = parse_int(value, m.lie_span_bytes);
    } else if (key == "mis_dup_sack_prob") {
      ok = parse_prob(value, m.dup_sack_probability);
    } else if (key == "mis_suppress_at_ns") {
      ok = parse_i64(value, i); m.suppress_at = t();
    } else if (key == "mis_suppress_duration_ns") {
      ok = parse_i64(value, i); m.suppress_duration = t();
    } else if (key == "mis_divide_factor") {
      ok = parse_int(value, m.divide_factor);
    } else if (key == "mis_divide_step_bytes") {
      ok = parse_int(value, m.divide_step_bytes);
    } else if (key == "mis_dup_ack_prob") {
      ok = parse_prob(value, m.dup_ack_probability);
    } else if (key == "mis_reorder_prob") {
      ok = parse_prob(value, m.reorder_probability);
    } else if (key == "mis_reorder_flush_ns") {
      ok = parse_i64(value, i); m.reorder_flush_timeout = t();
    } else if (key == "mis_shrink_at_ns") {
      ok = parse_i64(value, i); m.shrink_at = t();
    } else if (key == "mis_shrink_duration_ns") {
      ok = parse_i64(value, i); m.shrink_duration = t();
    } else if (key == "mis_shrink_rwnd_bytes") {
      ok = parse_u64(value, m.shrink_rwnd_bytes);
    } else if (key == "mis_corrupt_prob") {
      ok = parse_prob(value, m.corrupt_probability);
    } else if (key == "fault") {
      std::vector<std::string> tok = split_ws(value);
      net::FaultEvent ev;
      int64_t at = 0, dur = 0;
      ok = tok.size() == 5 && parse_fault_kind(tok[0], ev.kind) &&
           parse_i64(tok[1], at) && parse_i64(tok[2], dur) &&
           parse_f(tok[3], ev.scale) && std::isfinite(ev.scale) &&
           parse_int(tok[4], ev.queue_limit_packets);
      if (ok) {
        ev.at = sim::Time::nanoseconds(at);
        ev.duration = sim::Time::nanoseconds(dur);
        s.faults.add(ev);
      }
    } else if (key == "response") {
      std::vector<std::string> tok = split_ws(value);
      http::ResponseSpec r;
      int64_t gap = 0, interval = 0;
      ok = tok.size() == 5 && parse_u64(tok[0], r.bytes) &&
           parse_i64(tok[1], gap) && parse_u64(tok[2], r.burst_bytes) &&
           parse_u64(tok[3], r.chunk_bytes) && parse_i64(tok[4], interval);
      if (ok) {
        r.gap_before = sim::Time::nanoseconds(gap);
        r.chunk_interval = sim::Time::nanoseconds(interval);
        s.responses.push_back(r);
      }
    } else if (key == "expect") {
      ok = !value.empty();
      if (ok) c.expect.push_back(value);
    } else {
      return fail("line " + std::to_string(lineno) + ": unknown key '" +
                  key + "'");
    }
    if (!ok) {
      return fail("line " + std::to_string(lineno) + ": bad value for '" +
                  key + "'");
    }
  }
  out = std::move(c);
  return true;
}

bool save_repro(const ReproCase& c, const std::string& path,
                std::string* error) {
  if (util::checked_write_file(path, to_text(c))) return true;
  if (error) *error = "cannot write " + path;
  return false;
}

bool load_repro(const std::string& path, ReproCase& out, std::string* error) {
  std::ifstream f(path);
  if (!f) {
    if (error) *error = "cannot open " + path;
    return false;
  }
  std::ostringstream buf;
  buf << f.rdbuf();
  return from_text(buf.str(), out, error);
}

exp::ArmConfig repro_arm(const ReproCase& c) {
  exp::ArmConfig arm;
  if (c.arm == "RFC 3517") arm = exp::ArmConfig::rfc3517_arm();
  else if (c.arm == "Linux") arm = exp::ArmConfig::linux_arm();
  else arm = exp::ArmConfig::prr_arm();
  arm.max_rto_backoffs = c.max_rto_backoffs;
  arm.renege_recovery = c.renege_recovery;
  arm.validate_acks = c.validate_acks;
  arm.zero_window_probes = c.zero_window_probes;
  return arm;
}

exp::ReplayResult run_repro(const ReproCase& c) {
  ReproPopulation pop(c.sample);
  exp::RunOptions opts;
  opts.seed = c.seed;
  opts.per_connection_limit = c.limit;
  opts.check_invariants = true;
  opts.torture_oracles = true;
  opts.watchdog_rto_backoffs = c.watchdog_rto_backoffs;
  opts.scenario = "repro:" + c.name;
  exp::Experiment experiment(pop, opts);
  exp::QuarantineRecord rec;
  rec.seed = c.seed;
  rec.connection_id = c.connection;
  return experiment.replay(repro_arm(c), rec);
}

bool repro_reproduced(const ReproCase& c, const exp::ReplayResult& r) {
  if (c.expect.empty()) {
    return !r.violations.empty() || !r.exception.empty();
  }
  for (const std::string& want : c.expect) {
    if (want == "exception") {
      if (r.exception.empty()) return false;
      continue;
    }
    if (want == "not_terminated") {
      if (r.all_acked || r.aborted) return false;
      continue;
    }
    if (want == "aborted") {
      if (!r.aborted) return false;
      continue;
    }
    bool found = false;
    for (const auto& v : r.violations) {
      if (want == tcp::to_string(v.kind)) {
        found = true;
        break;
      }
    }
    if (!found) return false;
  }
  return true;
}

}  // namespace prr::torture
