// Reference evaluation of the store queries: every block decoded whole,
// then filtered, grouped and folded exactly as obs/query.cc did before
// queries decoded only the columns they read. The projected queries must
// give the same answers as these, field for field (test_obs_query.cc).
#pragma once

#include <map>
#include <string>
#include <vector>

#include "obs/episodes.h"
#include "obs/query.h"
#include "obs/store/store_reader.h"
#include "obs/trace_record.h"

namespace prr::oracle {

inline bool run_aggregate(const obs::StoreReader& reader,
                          const obs::AggregateQuery& q,
                          obs::AggregateResult* out) {
  std::map<uint64_t, obs::AggregateRow> groups;
  std::vector<obs::TraceRecord> records;
  const int64_t bucket = q.bucket_ns > 0 ? q.bucket_ns : 1'000'000'000;
  for (std::size_t i = 0; i < reader.blocks().size(); ++i) {
    if (!q.filter.matches_block(reader.blocks()[i])) continue;
    records.clear();
    if (!reader.read_block(i, &records)) return false;
    for (const obs::TraceRecord& r : records) {
      if (!q.filter.matches_record(r)) continue;
      uint64_t key = 0;
      switch (q.group) {
        case obs::GroupKey::kNone: key = 0; break;
        case obs::GroupKey::kConn: key = r.conn; break;
        case obs::GroupKey::kType: key = static_cast<uint64_t>(r.type); break;
        case obs::GroupKey::kTimeBucket:
          key = static_cast<uint64_t>(r.at_ns / bucket);
          break;
      }
      obs::AggregateRow& row = groups[key];
      row.key = key;
      const uint64_t v = obs::field_value(r, q.field);
      row.count += 1;
      row.sum += v;
      if (v < row.min) row.min = v;
      if (v > row.max) row.max = v;
    }
  }
  out->group = q.group;
  out->bucket_ns = q.group == obs::GroupKey::kTimeBucket ? bucket : 0;
  out->rows.clear();
  for (const auto& [key, row] : groups) out->rows.push_back(row);
  return true;
}

inline bool extract_series(const obs::StoreReader& reader, uint64_t conn,
                           obs::TraceType type, obs::QueryField field,
                           std::vector<obs::SeriesPoint>* out) {
  std::vector<obs::TraceRecord> records;
  if (!reader.read_connection(conn, &records)) return false;
  for (const obs::TraceRecord& r : records) {
    if (r.type != type) continue;
    out->push_back({r.at_ns, obs::field_value(r, field)});
  }
  return true;
}

inline bool episodes_from_store(const obs::StoreReader& reader,
                                const obs::QueryFilter& filter,
                                obs::EpisodeTable* out) {
  obs::EpisodeBuilder builder;
  std::vector<obs::TraceRecord> records;
  const auto& blocks = reader.blocks();
  std::size_t i = 0;
  while (i < blocks.size()) {
    const uint64_t conn = blocks[i].conn;
    std::size_t end = i;
    while (end < blocks.size() && blocks[end].conn == conn) ++end;
    if (filter.matches_block(blocks[i])) {
      records.clear();
      for (std::size_t b = i; b < end; ++b) {
        if (!reader.read_block(b, &records)) return false;
      }
      builder.reset();
      for (const obs::TraceRecord& r : records) builder.on_record(r);
      builder.finish();
      out->fold(builder);
    }
    i = end;
  }
  return true;
}

// attribute_critical_path as it was, with its timestamp arithmetic made
// wrapping so that a corrupt store cannot overflow the reference either.
inline obs::CriticalPathReport attribute_critical_path(
    const obs::TraceRecord* records, std::size_t n) {
  obs::CriticalPathReport rep;
  if (n > 0) rep.conn = records[0].conn;
  bool in_episode = false;
  uint64_t mss = 1;
  uint64_t cwnd = 0;
  uint64_t pipe = 0;
  bool just_sent = false;
  int64_t prev_ns = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const obs::TraceRecord& r = records[i];
    if (in_episode) {
      const int64_t gap = obs::wrapping_sub(r.at_ns, prev_ns);
      if (gap > 0) {
        rep.gaps += 1;
        rep.total_ns = obs::wrapping_add(rep.total_ns, gap);
        int64_t* bucket = &rep.app_limited_ns;
        if (r.type == obs::TraceType::kRtoFired ||
            (r.type == obs::TraceType::kTimerFire && r.a == 0)) {
          bucket = &rep.rto_wait_ns;
        } else if (cwnd < pipe + mss) {
          bucket = &rep.send_window_ns;
        } else if (just_sent) {
          bucket = &rep.waiting_for_ack_ns;
        }
        *bucket = obs::wrapping_add(*bucket, gap);
      }
    }
    if (obs::ends_recovery_episode(r)) in_episode = false;
    switch (r.type) {
      case obs::TraceType::kEnterRecovery:
        if (!in_episode) {
          in_episode = true;
          rep.episodes += 1;
          mss = r.b > 0 ? r.b : 1;
          pipe = r.f[2];
          cwnd = r.f[1];
          just_sent = false;
        }
        break;
      case obs::TraceType::kAck:
        cwnd = r.f[1];
        pipe = r.f[2];
        just_sent = false;
        break;
      case obs::TraceType::kTransmit:
        cwnd = r.f[2];
        pipe += r.f[1];
        just_sent = true;
        break;
      case obs::TraceType::kWireData:
        just_sent = true;
        break;
      default:
        break;
    }
    prev_ns = r.at_ns;
  }
  return rep;
}

inline bool critical_path(const obs::StoreReader& reader, uint64_t conn,
                          obs::CriticalPathReport* out) {
  std::vector<obs::TraceRecord> records;
  if (!reader.read_connection(conn, &records)) return false;
  *out = oracle::attribute_critical_path(records.data(), records.size());
  out->conn = conn;
  return true;
}

}  // namespace prr::oracle
