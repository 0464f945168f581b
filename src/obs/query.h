// Offline analytics over trace-store files (DESIGN.md §14.4): the library
// behind the `prr_query` CLI. Four layers, all operating on a StoreReader:
//
//   * filter / group-by / aggregate / time-bucket over raw TraceRecords
//     (run_aggregate): count/sum/min/max/mean of any record field, grouped
//     by connection, record type, or fixed time buckets.
//   * time-series extraction (extract_series): (at_ns, field) pairs of one
//     record type for one connection — cwnd-over-time and pipe-over-time
//     plots come straight from kAck records.
//   * episode reconstruction (episodes_from_store): replays each stored
//     connection's records through the SAME EpisodeBuilder/EpisodeTable
//     machinery the live harness uses, so every table derived from a store
//     (Tables 1/3/5/6/7) reconciles field-exactly with the in-process
//     path; the StoreLive tests enforce this, on web and under chaos.
//   * critical-path attribution (critical_path): walks a stored episode's
//     record chain and reports where its recovery latency went —
//     waiting-for-ack vs rto-wait vs app-limited vs send-window-limited.
//
// Determinism: everything here is a pure function of the store bytes, and
// store bytes are a pure function of (seed, arms, policy) — so query
// output is byte-stable across machines and thread counts.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "obs/episodes.h"
#include "obs/store/store_reader.h"
#include "obs/trace_record.h"

namespace prr::obs {

// Which numeric field of a TraceRecord a query aggregates or extracts.
enum class QueryField : uint8_t {
  kAtNs,
  kA,
  kB,
  kF0,
  kF1,
  kF2,
  kF3,
  kF4,
  kF5,
};

uint64_t field_value(const TraceRecord& r, QueryField f);

// Parses "at_ns" | "a" | "b" | "f0".."f5", plus per-type aliases for the
// common plots: for `ack` records ack/cwnd/pipe/ssthresh/delivered/
// snd_nxt map to f0..f5; for `transmit` records seq/len/cwnd/snd_nxt do.
// `type` only enables the aliases; generic names always parse.
bool parse_field(TraceType type, std::string_view name, QueryField* out,
                 std::string* err);

// Round-trips the to_string(TraceType) names ("ack", "enter_recovery"...).
bool parse_trace_type(std::string_view name, TraceType* out);

// Record/block predicate. Block-level clauses (conn range, capture class)
// prune whole blocks before decoding; record-level clauses (type mask,
// time range) filter decoded records.
struct QueryFilter {
  uint64_t conn_min = 0;
  uint64_t conn_max = UINT64_MAX;
  uint32_t type_mask = 0xFFFFFFFFu;  // bit i = TraceType(i) included
  int64_t t_min_ns = INT64_MIN;
  int64_t t_max_ns = INT64_MAX;
  bool include_sampled = true;  // blocks kept by a sample=N draw
  bool include_full = true;     // blocks kept whole by a trigger

  void set_only_type(TraceType t) {
    type_mask = 1u << static_cast<uint32_t>(t);
  }
  bool matches_block(const StoreBlockMeta& b) const;
  bool matches_record(const TraceRecord& r) const;
};

enum class GroupKey : uint8_t {
  kNone,        // one global row
  kConn,        // per connection id
  kType,        // per TraceType
  kTimeBucket,  // per floor(at_ns / bucket_ns)
};

// The widest kTimeBucket a width in whole milliseconds can name without
// overflowing bucket_ns.
inline constexpr int64_t kMaxBucketMs =
    std::numeric_limits<int64_t>::max() / 1'000'000;

struct AggregateQuery {
  QueryFilter filter;
  GroupKey group = GroupKey::kNone;
  int64_t bucket_ns = 1'000'000'000;       // kTimeBucket width
  QueryField field = QueryField::kAtNs;    // value being aggregated
};

// One output row: the group key (conn id, type id, or bucket index;
// 0 for kNone) and the field's count/sum/min/max.
struct AggregateRow {
  uint64_t key = 0;
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t min = UINT64_MAX;
  uint64_t max = 0;

  double mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }
};

struct AggregateResult {
  GroupKey group = GroupKey::kNone;
  int64_t bucket_ns = 0;
  std::vector<AggregateRow> rows;  // ascending key

  // {"group":"conn","rows":[{"key":...,"count":...,...}]} — byte-stable,
  // so two runs of the same sweep can be diffed with strcmp.
  std::string to_json() const;
};

// Runs `q` over every matching record. False only on a failed block read
// (a decode failure, possible when the reader skipped digest
// verification, or a store changed since open); *err then names the
// store, as it does for every store-backed query below.
bool run_aggregate(const StoreReader& reader, const AggregateQuery& q,
                   AggregateResult* out, std::string* err);

struct SeriesPoint {
  int64_t at_ns = 0;
  uint64_t value = 0;
};

// (at_ns, field) of every type-`type` record of connection `conn`, in
// stream order. cwnd-over-time = (kAck, f1); pipe-over-time = (kAck, f2).
bool extract_series(const StoreReader& reader, uint64_t conn,
                    TraceType type, QueryField field,
                    std::vector<SeriesPoint>* out, std::string* err);

// Rebuilds the EpisodeTable from stored records: per connection (ascending
// id), feed its records through an EpisodeBuilder and fold — the exact
// live-path machinery, so tables reconcile field-exactly. Only the
// filter's BLOCK-level clauses apply (conn range, capture class);
// record-level filtering would corrupt episode reconstruction.
bool episodes_from_store(const StoreReader& reader,
                         const QueryFilter& filter, EpisodeTable* out,
                         std::string* err);

// --- critical-path attribution ---------------------------------------
//
// Where did a stored episode's wall-clock go? Every inter-record gap
// inside an episode is attributed to one bucket:
//
//   rto_wait        the gap ended with the retransmission timer firing —
//                   recovery sat waiting for the RTO clock.
//   send_window     window headroom (cwnd − pipe) was below one MSS when
//                   the gap began: the regulation (or a tiny cwnd) forbade
//                   sending, so progress had to wait for deliveries.
//   waiting_for_ack headroom existed and the sender had just put data on
//                   the wire — the gap is flight time, waiting for the
//                   network to return an ACK.
//   app_limited     headroom existed and nothing was in flight from this
//                   instant — the sender had nothing (left) to send.
//
// The classification is a heuristic over the recorded state (it tracks
// cwnd/pipe from kAck and kTransmit records), not a replay of the sender;
// buckets sum exactly to the episode's duration by construction.
struct CriticalPathReport {
  uint64_t conn = 0;
  uint64_t episodes = 0;
  uint64_t gaps = 0;
  int64_t total_ns = 0;  // summed episode durations
  int64_t waiting_for_ack_ns = 0;
  int64_t rto_wait_ns = 0;
  int64_t app_limited_ns = 0;
  int64_t send_window_ns = 0;

  void merge(const CriticalPathReport& o);
  std::string to_json() const;
};

// Attribution over one connection's full record stream (every episode in
// it). Exposed on raw records so tests can drive it synthetically.
CriticalPathReport attribute_critical_path(const TraceRecord* records,
                                           std::size_t n);

// Store-backed form: decodes connection `conn` and attributes it.
bool critical_path(const StoreReader& reader, uint64_t conn,
                   CriticalPathReport* out, std::string* err);

// Human-readable block for the CLI ("recovery latency: 61.2% waiting for
// ACKs, 30.1% RTO wait, ...").
std::string describe(const CriticalPathReport& r);

}  // namespace prr::obs
