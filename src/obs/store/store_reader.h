// Read side of the trace store. open() reads the file in one read,
// verifies the footer magic and the file digest over everything before
// it (so a truncated or corrupted file is rejected up front, never
// half-decoded), and parses and bounds-checks the block index; records
// decode lazily per block, and only the columns a caller asks for. The
// whole file is held in memory — store files are a few bytes per kept
// record, so even a million-connection sweep's sampled store is tens of
// MB, well inside what an offline analytics CLI can map.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/store/store_format.h"
#include "obs/trace_record.h"

namespace prr::obs {

class StoreReader {
 public:
  // `verify_digest` can be disabled for very large files when the caller
  // has already checked integrity (the CLI exposes --no-verify); the
  // structural footer/index checks always run.
  static bool open(const std::string& path, StoreReader* out,
                   std::string* err, bool verify_digest = true);

  const StoreMeta& meta() const { return meta_; }
  // Blocks in file order: ascending conn, stream order within a conn.
  const std::vector<StoreBlockMeta>& blocks() const { return blocks_; }
  uint64_t total_records() const { return total_records_; }

  // Decodes block i, appending its records to *out with the fields of
  // `columns` filled in (decode_block). False on malformed payload
  // (possible only if the digest check was skipped).
  bool read_block(std::size_t i, std::vector<TraceRecord>* out,
                  ColumnMask columns = kAllColumns) const;

  // The set of record types in block i (bit t = TraceType(t) occurs),
  // read from the type column alone. False if the at_ns or type column
  // is malformed.
  bool block_types(std::size_t i, uint32_t* types) const;

  // Every record of connection `conn` (all its blocks, stream order).
  // False on decode failure; an absent conn yields true and no records.
  bool read_connection(uint64_t conn, std::vector<TraceRecord>* out,
                       ColumnMask columns = kAllColumns) const;

  // Distinct connection ids present, ascending.
  std::vector<uint64_t> connections() const;

  // Raw payload access for the merge tool.
  const uint8_t* block_data(std::size_t i) const {
    return reinterpret_cast<const uint8_t*>(file_.data()) +
           blocks_[i].offset;
  }

 private:
  std::string file_;
  StoreMeta meta_;
  std::vector<StoreBlockMeta> blocks_;
  uint64_t total_records_ = 0;
};

}  // namespace prr::obs
