#include "obs/query.h"

#include <cinttypes>
#include <cstdio>
#include <map>

#include "obs/json.h"

namespace prr::obs {

uint64_t field_value(const TraceRecord& r, QueryField f) {
  switch (f) {
    case QueryField::kAtNs: return static_cast<uint64_t>(r.at_ns);
    case QueryField::kA: return r.a;
    case QueryField::kB: return r.b;
    case QueryField::kF0: return r.f[0];
    case QueryField::kF1: return r.f[1];
    case QueryField::kF2: return r.f[2];
    case QueryField::kF3: return r.f[3];
    case QueryField::kF4: return r.f[4];
    case QueryField::kF5: return r.f[5];
  }
  return 0;
}

bool parse_field(TraceType type, std::string_view name, QueryField* out,
                 std::string* err) {
  static constexpr struct {
    const char* name;
    QueryField field;
  } kGeneric[] = {
      {"at_ns", QueryField::kAtNs}, {"a", QueryField::kA},
      {"b", QueryField::kB},        {"f0", QueryField::kF0},
      {"f1", QueryField::kF1},      {"f2", QueryField::kF2},
      {"f3", QueryField::kF3},      {"f4", QueryField::kF4},
      {"f5", QueryField::kF5},
  };
  for (const auto& g : kGeneric) {
    if (name == g.name) {
      *out = g.field;
      return true;
    }
  }
  // Per-type aliases (the TraceType enum's documented f-slot meanings).
  static constexpr struct {
    TraceType type;
    const char* name;
    QueryField field;
  } kAliases[] = {
      {TraceType::kAck, "ack", QueryField::kF0},
      {TraceType::kAck, "cwnd", QueryField::kF1},
      {TraceType::kAck, "pipe", QueryField::kF2},
      {TraceType::kAck, "ssthresh", QueryField::kF3},
      {TraceType::kAck, "delivered", QueryField::kF4},
      {TraceType::kAck, "snd_nxt", QueryField::kF5},
      {TraceType::kTransmit, "seq", QueryField::kF0},
      {TraceType::kTransmit, "len", QueryField::kF1},
      {TraceType::kTransmit, "cwnd", QueryField::kF2},
      {TraceType::kTransmit, "snd_nxt", QueryField::kF3},
      {TraceType::kPrr, "prr_delivered", QueryField::kF0},
      {TraceType::kPrr, "prr_out", QueryField::kF1},
      {TraceType::kPrr, "recover_fs", QueryField::kF2},
      {TraceType::kPrr, "prr_ssthresh", QueryField::kF3},
      {TraceType::kPrr, "cwnd", QueryField::kF4},
  };
  for (const auto& a : kAliases) {
    if (a.type == type && name == a.name) {
      *out = a.field;
      return true;
    }
  }
  if (err != nullptr) {
    *err = "unknown field '" + std::string(name) +
           "' (want at_ns|a|b|f0..f5 or a per-type alias like cwnd)";
  }
  return false;
}

bool parse_trace_type(std::string_view name, TraceType* out) {
  for (uint32_t i = 0; i < static_cast<uint32_t>(TraceType::kCount); ++i) {
    const TraceType t = static_cast<TraceType>(i);
    if (name == to_string(t)) {
      *out = t;
      return true;
    }
  }
  return false;
}

bool QueryFilter::matches_block(const StoreBlockMeta& b) const {
  if (b.conn < conn_min || b.conn > conn_max) return false;
  if (!include_full && (b.flags & kBlockFull) != 0) return false;
  if (!include_sampled && (b.flags & kBlockSampled) != 0) return false;
  return true;
}

bool QueryFilter::matches_record(const TraceRecord& r) const {
  if ((type_mask & (1u << static_cast<uint32_t>(r.type))) == 0) {
    return false;
  }
  return r.at_ns >= t_min_ns && r.at_ns <= t_max_ns;
}

namespace {

bool decode_failed(std::string* err, const StoreReader& reader,
                   std::size_t block) {
  if (err != nullptr) {
    *err = "block " + std::to_string(block) + " (conn " +
           std::to_string(reader.blocks()[block].conn) +
           ") failed to decode";
  }
  return false;
}

}  // namespace

bool run_aggregate(const StoreReader& reader, const AggregateQuery& q,
                   AggregateResult* out, std::string* err) {
  // std::map keeps keys sorted, so rows come out ascending regardless of
  // group kind — byte-stable JSON for free.
  std::map<uint64_t, AggregateRow> groups;
  std::vector<TraceRecord> records;
  const int64_t bucket =
      q.bucket_ns > 0 ? q.bucket_ns : 1'000'000'000;
  for (std::size_t i = 0; i < reader.blocks().size(); ++i) {
    if (!q.filter.matches_block(reader.blocks()[i])) continue;
    records.clear();
    if (!reader.read_block(i, &records)) {
      return decode_failed(err, reader, i);
    }
    for (const TraceRecord& r : records) {
      if (!q.filter.matches_record(r)) continue;
      uint64_t key = 0;
      switch (q.group) {
        case GroupKey::kNone: key = 0; break;
        case GroupKey::kConn: key = r.conn; break;
        case GroupKey::kType: key = static_cast<uint64_t>(r.type); break;
        case GroupKey::kTimeBucket:
          key = static_cast<uint64_t>(r.at_ns / bucket);
          break;
      }
      AggregateRow& row = groups[key];
      row.key = key;
      const uint64_t v = field_value(r, q.field);
      row.count += 1;
      row.sum += v;
      if (v < row.min) row.min = v;
      if (v > row.max) row.max = v;
    }
  }
  out->group = q.group;
  out->bucket_ns = q.group == GroupKey::kTimeBucket ? bucket : 0;
  out->rows.clear();
  out->rows.reserve(groups.size());
  for (const auto& [key, row] : groups) out->rows.push_back(row);
  return true;
}

std::string AggregateResult::to_json() const {
  const char* name = "none";
  switch (group) {
    case GroupKey::kNone: name = "none"; break;
    case GroupKey::kConn: name = "conn"; break;
    case GroupKey::kType: name = "type"; break;
    case GroupKey::kTimeBucket: name = "time_bucket"; break;
  }
  std::string out = "{\"group\":";
  out += json_quote(name);
  if (group == GroupKey::kTimeBucket) {
    out += ",\"bucket_ns\":" + std::to_string(bucket_ns);
  }
  out += ",\"rows\":[";
  char buf[256];
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const AggregateRow& r = rows[i];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"key\":%" PRIu64 ",\"count\":%" PRIu64
                  ",\"sum\":%" PRIu64 ",\"min\":%" PRIu64
                  ",\"max\":%" PRIu64 "}",
                  i == 0 ? "" : ",", r.key, r.count, r.sum,
                  r.count == 0 ? uint64_t{0} : r.min, r.max);
    out += buf;
  }
  out += "]}";
  return out;
}

bool extract_series(const StoreReader& reader, uint64_t conn,
                    TraceType type, QueryField field,
                    std::vector<SeriesPoint>* out, std::string* err) {
  std::vector<TraceRecord> records;
  if (!reader.read_connection(conn, &records)) {
    if (err != nullptr) {
      *err = "conn " + std::to_string(conn) + " failed to decode";
    }
    return false;
  }
  for (const TraceRecord& r : records) {
    if (r.type != type) continue;
    out->push_back({r.at_ns, field_value(r, field)});
  }
  return true;
}

bool episodes_from_store(const StoreReader& reader,
                         const QueryFilter& filter, EpisodeTable* out,
                         std::string* err) {
  EpisodeBuilder builder;
  std::vector<TraceRecord> records;
  const auto& blocks = reader.blocks();
  std::size_t i = 0;
  while (i < blocks.size()) {
    // One connection = the run of blocks sharing a conn id.
    const uint64_t conn = blocks[i].conn;
    std::size_t end = i;
    while (end < blocks.size() && blocks[end].conn == conn) ++end;
    if (filter.matches_block(blocks[i])) {
      records.clear();
      for (std::size_t b = i; b < end; ++b) {
        if (!reader.read_block(b, &records)) {
          return decode_failed(err, reader, b);
        }
      }
      builder.reset();
      for (const TraceRecord& r : records) builder.on_record(r);
      builder.finish();
      out->fold(builder);
    }
    i = end;
  }
  return true;
}

// --- critical-path attribution ---------------------------------------

void CriticalPathReport::merge(const CriticalPathReport& o) {
  episodes += o.episodes;
  gaps += o.gaps;
  total_ns += o.total_ns;
  waiting_for_ack_ns += o.waiting_for_ack_ns;
  rto_wait_ns += o.rto_wait_ns;
  app_limited_ns += o.app_limited_ns;
  send_window_ns += o.send_window_ns;
}

CriticalPathReport attribute_critical_path(const TraceRecord* records,
                                           std::size_t n) {
  CriticalPathReport rep;
  if (n > 0) rep.conn = records[0].conn;
  bool in_episode = false;
  uint64_t mss = 1;
  uint64_t cwnd = 0;
  uint64_t pipe = 0;
  bool just_sent = false;  // the previous record put data on the wire
  int64_t prev_ns = 0;

  for (std::size_t i = 0; i < n; ++i) {
    const TraceRecord& r = records[i];
    if (in_episode) {
      const int64_t gap = r.at_ns - prev_ns;
      if (gap > 0) {
        rep.gaps += 1;
        rep.total_ns += gap;
        if (r.type == TraceType::kRtoFired ||
            (r.type == TraceType::kTimerFire && r.a == 0)) {
          rep.rto_wait_ns += gap;
        } else if (cwnd < pipe + mss) {  // headroom below one MSS
          rep.send_window_ns += gap;
        } else if (just_sent) {
          rep.waiting_for_ack_ns += gap;
        } else {
          rep.app_limited_ns += gap;
        }
      }
    }
    // State tracking (order matters: classify the gap BEFORE updating
    // the window view with this record's contents).
    if (ends_recovery_episode(r)) in_episode = false;
    switch (r.type) {
      case TraceType::kEnterRecovery:
        if (!in_episode) {
          in_episode = true;
          rep.episodes += 1;
          mss = r.b > 0 ? r.b : 1;
          pipe = r.f[2];
          cwnd = r.f[1];  // recovery regulates toward ssthresh
          just_sent = false;
        }
        break;
      case TraceType::kAck:
        cwnd = r.f[1];
        pipe = r.f[2];
        just_sent = false;
        break;
      case TraceType::kTransmit:
        cwnd = r.f[2];
        pipe += r.f[1];  // len joins the flight
        just_sent = true;
        break;
      case TraceType::kWireData:
        just_sent = true;
        break;
      default:
        break;
    }
    prev_ns = r.at_ns;
  }
  return rep;
}

bool critical_path(const StoreReader& reader, uint64_t conn,
                   CriticalPathReport* out, std::string* err) {
  std::vector<TraceRecord> records;
  if (!reader.read_connection(conn, &records)) {
    if (err != nullptr) {
      *err = "conn " + std::to_string(conn) + " failed to decode";
    }
    return false;
  }
  *out = attribute_critical_path(records.data(), records.size());
  out->conn = conn;
  return true;
}

std::string CriticalPathReport::to_json() const {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "{\"conn\":%" PRIu64 ",\"episodes\":%" PRIu64 ",\"gaps\":%" PRIu64
      ",\"total_ns\":%lld,\"waiting_for_ack_ns\":%lld,"
      "\"rto_wait_ns\":%lld,\"app_limited_ns\":%lld,"
      "\"send_window_ns\":%lld}",
      conn, episodes, gaps, static_cast<long long>(total_ns),
      static_cast<long long>(waiting_for_ack_ns),
      static_cast<long long>(rto_wait_ns),
      static_cast<long long>(app_limited_ns),
      static_cast<long long>(send_window_ns));
  return buf;
}

std::string describe(const CriticalPathReport& r) {
  const double total = r.total_ns > 0 ? static_cast<double>(r.total_ns) : 1;
  auto pct = [total](int64_t ns) {
    return 100.0 * static_cast<double>(ns) / total;
  };
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "conn %" PRIu64 ": %" PRIu64 " episode(s), %.3fms in recovery\n"
      "  waiting_for_ack %7.3fms (%5.1f%%)\n"
      "  rto_wait        %7.3fms (%5.1f%%)\n"
      "  send_window     %7.3fms (%5.1f%%)\n"
      "  app_limited     %7.3fms (%5.1f%%)\n",
      r.conn, r.episodes, static_cast<double>(r.total_ns) / 1e6,
      static_cast<double>(r.waiting_for_ack_ns) / 1e6,
      pct(r.waiting_for_ack_ns),
      static_cast<double>(r.rto_wait_ns) / 1e6, pct(r.rto_wait_ns),
      static_cast<double>(r.send_window_ns) / 1e6, pct(r.send_window_ns),
      static_cast<double>(r.app_limited_ns) / 1e6, pct(r.app_limited_ns));
  return buf;
}

}  // namespace prr::obs
