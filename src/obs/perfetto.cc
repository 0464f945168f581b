#include "obs/perfetto.h"

#include <cstdio>
#include <set>
#include <string>

#include "obs/flight_recorder.h"
#include "obs/json.h"

namespace prr::obs {

namespace {

constexpr int kPid = 1;

std::string ts_us(int64_t at_ns) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.3f", static_cast<double>(at_ns) / 1e3);
  return buf;
}

void event_prefix(std::string& out, const char* ph, int pid,
                  const TraceRecord& r, const std::string& name) {
  out += "{\"ph\":\"";
  out += ph;
  out += "\",\"pid\":" + std::to_string(pid);
  out += ",\"tid\":" + std::to_string(r.conn);
  out += ",\"ts\":" + ts_us(r.at_ns);
  out += ",\"name\":" + json_quote(name);
}

void counter_event(std::string& out, int pid, const TraceRecord& r,
                   const std::string& track, const char* k0, uint64_t v0,
                   const char* k1, uint64_t v1, const char* k2 = nullptr,
                   uint64_t v2 = 0) {
  event_prefix(out, "C", pid, r, track);
  out += ",\"args\":{\"";
  out += k0;
  out += "\":" + std::to_string(v0) + ",\"";
  out += k1;
  out += "\":" + std::to_string(v1);
  if (k2 != nullptr) {
    out += ",\"";
    out += k2;
    out += "\":" + std::to_string(v2);
  }
  out += "}},\n";
}

void instant_event(std::string& out, int pid, const TraceRecord& r,
                   const std::string& name) {
  event_prefix(out, "i", pid, r, name);
  out += ",\"s\":\"t\",\"args\":{\"detail\":" + json_quote(describe(r)) +
         "}},\n";
}

}  // namespace

void perfetto_append_process(std::string& out,
                             const std::vector<TraceRecord>& records,
                             int pid, const std::string& process_name) {
  out += "{\"ph\":\"M\",\"pid\":" + std::to_string(pid) +
         ",\"name\":\"process_name\",\"args\":{\"name\":" +
         json_quote(process_name) + "}},\n";

  // One thread_name metadata event per connection seen.
  std::set<uint32_t> conns;
  for (const TraceRecord& r : records) conns.insert(r.conn);
  for (uint32_t conn : conns) {
    out += "{\"ph\":\"M\",\"pid\":" + std::to_string(pid) +
           ",\"tid\":" + std::to_string(conn) +
           ",\"name\":\"thread_name\",\"args\":{\"name\":\"conn " +
           std::to_string(conn) + "\"}},\n";
  }

  // Connections with an open "fast recovery" slice. A slice closes by
  // EpisodeBuilder's rule (ends_recovery_episode), so RTO- and
  // undo-ended episodes get their "E" too; an exit whose entry was cut
  // off (a ring tail) emits none, and a slice still open at the end of
  // the stream stays open, as the episode did.
  std::set<uint32_t> in_recovery;
  for (const TraceRecord& r : records) {
    const std::string conn_s = std::to_string(r.conn);
    switch (r.type) {
      case TraceType::kAck:
        counter_event(out, pid, r, "conn" + conn_s + " window", "cwnd",
                      r.f[1], "pipe", r.f[2], "ssthresh", r.f[3]);
        break;
      case TraceType::kPrr:
        counter_event(out, pid, r, "conn" + conn_s + " prr", "prr_delivered",
                      r.f[0], "prr_out", r.f[1]);
        break;
      case TraceType::kEnterRecovery:
        if (!in_recovery.insert(r.conn).second) {
          // A second entry means the exit was lost: close the old slice.
          event_prefix(out, "E", pid, r, "fast recovery");
          out += "},\n";
        }
        event_prefix(out, "B", pid, r, "fast recovery");
        out += ",\"args\":{\"ssthresh\":" + std::to_string(r.f[1]) +
               ",\"pipe\":" + std::to_string(r.f[2]) +
               ",\"prior_cwnd\":" + std::to_string(r.f[3]) + "}},\n";
        break;
      case TraceType::kExitRecovery:
        if (in_recovery.erase(r.conn) != 0) {
          event_prefix(out, "E", pid, r, "fast recovery");
          out += ",\"args\":{\"cwnd\":" + std::to_string(r.f[0]) +
                 "}},\n";
        }
        break;
      case TraceType::kFault:
        event_prefix(out, "X", pid, r, "fault");
        out += ",\"dur\":" + ts_us(static_cast<int64_t>(r.f[0]));
        out += ",\"args\":{\"detail\":" + json_quote(describe(r)) + "}},\n";
        break;
      case TraceType::kStateChange:
      case TraceType::kRtoFired:
      case TraceType::kUndo:
      case TraceType::kAbort:
      case TraceType::kTimerSchedule:
      case TraceType::kTimerFire:
      case TraceType::kTimerCancel:
      case TraceType::kInvariant:
      case TraceType::kLostRetransmit:
      case TraceType::kSackReneg:
        instant_event(out, pid, r, to_string(r.type));
        if (ends_recovery_episode(r) && in_recovery.erase(r.conn) != 0) {
          event_prefix(out, "E", pid, r, "fast recovery");
          out += "},\n";
        }
        break;
      case TraceType::kTransmit:
        // Only retransmissions become instants; regular transmissions
        // are visible through the window counter track and would bloat
        // the export by an order of magnitude.
        if (r.a != 0) instant_event(out, pid, r, "retransmit");
        break;
      case TraceType::kUnaAdvance:
      case TraceType::kSackSeen:
      case TraceType::kWireData:
      case TraceType::kWireAck:
      case TraceType::kCount:
        break;
    }
  }
}

std::string perfetto_trace_json(const std::vector<TraceRecord>& records) {
  std::string out = "{\"traceEvents\":[\n";
  perfetto_append_process(out, records, kPid, "prr simulator");

  // Closing sentinel avoids trailing-comma bookkeeping in the loop.
  out += "{\"ph\":\"M\",\"pid\":" + std::to_string(kPid) +
         ",\"name\":\"trace_complete\",\"args\":{\"records\":" +
         std::to_string(records.size()) + "}}\n";
  out += "]}\n";
  return out;
}

std::string perfetto_trace_json(const FlightRecorder& rec) {
  std::vector<TraceRecord> records;
  records.reserve(rec.size());
  for (std::size_t i = 0; i < rec.size(); ++i) records.push_back(rec[i]);
  return perfetto_trace_json(records);
}

}  // namespace prr::obs
