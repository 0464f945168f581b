// Write side of the trace store (format in store_format.h): a columnar
// encoder with a bounded, reused scratch buffer; an in-memory shard for
// worker threads (encoded blocks buffered until the stream fold reaches
// them); and the file writer that streams blocks to disk behind libc
// buffering while maintaining the index and digest incrementally.
//
// Memory contract: the encoder's scratch is bounded by kMaxBlockRecords
// regardless of ring size and is reused across connections (no steady-
// state allocation once warm); the writer holds only the index in memory
// (one small entry per kept block). With a sampling capture policy, a
// million-connection sweep's store state is kilobytes — flat RSS.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "obs/store/store_format.h"
#include "obs/trace_record.h"

namespace prr::obs {

class FlightRecorder;

// Encoded blocks buffered in memory: what a worker shard accumulates
// between the capture decision and the stream fold. merge() appends —
// shards merge in ascending connection-id order, exactly like every
// other ArmResult aggregate, so the concatenation is the serial order.
struct StoreShard {
  std::vector<uint8_t> bytes;          // concatenated block payloads
  std::vector<StoreBlockMeta> blocks;  // geometry, in append order

  void merge(StoreShard&& other);
  void clear() {
    bytes.clear();
    blocks.clear();
  }
  bool empty() const { return blocks.empty(); }
};

// Columnar encoder. One instance per worker (scratch reuse); encode()
// appends one connection's records as one or more blocks.
class StoreEncoder {
 public:
  // Encodes `n` records into `shard`, splitting into blocks of at most
  // kMaxBlockRecords. `flags` is ORed into every emitted block's flags.
  void encode(const TraceRecord* records, std::size_t n, uint64_t conn,
              uint8_t flags, StoreShard* shard);

  // Convenience: the surviving contents of a ring, oldest first. Adds
  // kBlockTruncated when the ring wrapped (head records were lost).
  void encode(const FlightRecorder& ring, uint64_t conn, uint8_t flags,
              StoreShard* shard);

 private:
  std::vector<uint8_t> scratch_;
};

// Decodes one block payload (exactly `records` records for `conn`) back
// into TraceRecords, appending to *out. Only the columns in `columns`
// are filled in (type and conn always are); the other fields stay zero.
// A column outside the mask is skipped without decoding its values, but
// its framing is still checked, so the answer does not depend on the
// mask: false on malformed or short data, and *out may then hold a
// partial prefix.
bool decode_block(const uint8_t* data, std::size_t bytes,
                  std::size_t records, uint64_t conn,
                  std::vector<TraceRecord>* out,
                  ColumnMask columns = kAllColumns);

// Streaming file writer. Usage: open() → append_block()/append_shard()
// repeatedly in ascending conn order → finish(). Any IO error latches:
// subsequent calls no-op and finish() returns false.
class StoreWriter {
 public:
  StoreWriter() = default;
  ~StoreWriter();
  StoreWriter(const StoreWriter&) = delete;
  StoreWriter& operator=(const StoreWriter&) = delete;

  bool open(const std::string& path, const StoreMeta& meta);
  bool append_block(const StoreBlockMeta& meta, const uint8_t* data);
  // Flushes every block of `shard` (does not clear it).
  bool append_shard(const StoreShard& shard);
  // Writes index + footer and closes. Idempotent; false on any earlier
  // or current IO failure.
  bool finish();

  bool failed() const { return failed_; }
  const std::string& path() const { return path_; }
  uint64_t blocks() const { return index_.size(); }
  uint64_t records() const { return records_; }
  uint64_t payload_bytes() const { return payload_bytes_; }
  // Distinct connections appended. Exact because blocks arrive in
  // ascending conn order with same-conn blocks contiguous.
  uint64_t connections() const { return conns_; }

 private:
  bool write(const uint8_t* p, std::size_t n);

  std::FILE* f_ = nullptr;
  std::vector<uint8_t> buf_;  // stdio buffer; must outlive f_
  std::string path_;
  StoreDigest digest_;
  std::vector<StoreBlockMeta> index_;
  uint64_t offset_ = 0;  // bytes written so far
  uint64_t records_ = 0;
  uint64_t payload_bytes_ = 0;
  uint64_t conns_ = 0;
  bool failed_ = false;
  bool finished_ = false;
};

// Merges store files covering disjoint connection-id ranges (one per
// process, each run over its own RunOptions::first_connection range)
// into one file that is byte-identical to a single-process run over the
// union: blocks are re-emitted in ascending (conn, stream) order under
// the shared header meta. Inputs
// must agree on StoreMeta; returns false (with *err set) on meta
// mismatch, unreadable input, an input changed while merging, or IO
// failure. OUT may be one of the inputs: the merge is written to
// OUT.partial and renamed over OUT only once complete, so a failed merge
// leaves OUT as it was.
bool merge_store_files(const std::vector<std::string>& inputs,
                       const std::string& out_path, std::string* err);

}  // namespace prr::obs
