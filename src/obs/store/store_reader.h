// Read side of the trace store. open() reads the file once, front to
// back, through one fixed buffer: it feeds the digest over everything
// before the digest field (so a truncated or corrupted file is rejected
// up front, never half-decoded) and parses the header, the footer and
// the block index from those same bytes, bounds-checking every index
// entry. After open the reader holds the index and one read window,
// whatever the payload size: a block read preads into the window, which
// is kWindowBytes and widens only to fit the largest block the format
// allows (kMaxBlockBytes), so a forward scan costs one pread per window.
// Records decode lazily per block, and only the columns a caller asks
// for. The header is parsed from the pass's first read, so a header
// longer than kWindowBytes (run-identity strings past 1 MiB, which no
// sweep writes) is refused as malformed.
//
// The file must stay as it was at open. A read that comes back short, or
// an fstat showing another size or mtime than at open, fails the call
// with "<path>: store changed since open"; bytes the open pass did not
// check are never decoded. (A same-size rewrite whose mtime lands in the
// same filesystem timestamp tick as the open is not seen.)
//
// One reader per thread: the read methods are const, so queries take a
// const StoreReader&, but they share and move the one window.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/store/store_format.h"
#include "obs/trace_record.h"

namespace prr::obs {

class StoreReader {
 public:
  // Bytes a block read fetches ahead (the block itself and those after
  // it), and the open pass's read size.
  static constexpr std::size_t kWindowBytes = std::size_t{1} << 20;

  // `verify_digest` false skips the digest and so reads only the header
  // and the index (the CLI's --no-verify): a time saving, not a memory
  // one. The structural footer/header/index checks always run.
  static bool open(const std::string& path, StoreReader* out,
                   std::string* err, bool verify_digest = true);

  const StoreMeta& meta() const { return meta_; }
  // Blocks in file order: ascending conn, stream order within a conn.
  const std::vector<StoreBlockMeta>& blocks() const { return blocks_; }
  uint64_t total_records() const { return total_records_; }

  // Decodes block i, appending its records to *out with the fields of
  // `columns` filled in (decode_block). False, with *err naming the
  // store, on a malformed payload (possible only if the digest check was
  // skipped) or a store changed since open.
  bool read_block(std::size_t i, std::vector<TraceRecord>* out,
                  ColumnMask columns = kAllColumns,
                  std::string* err = nullptr) const;

  // The set of record types in block i (bit t = TraceType(t) occurs),
  // read from the type column alone. False, as read_block, if the at_ns
  // or type column is malformed or the store changed.
  bool block_types(std::size_t i, uint32_t* types,
                   std::string* err = nullptr) const;

  // Every record of connection `conn` (all its blocks, stream order).
  // False on a failed block read; an absent conn yields true and no
  // records.
  bool read_connection(uint64_t conn, std::vector<TraceRecord>* out,
                       ColumnMask columns = kAllColumns,
                       std::string* err = nullptr) const;

  // Distinct connection ids present, ascending.
  std::vector<uint64_t> connections() const;

  // Block i's raw payload (blocks()[i].bytes long), valid until the next
  // read on this reader. Null, with *err set, if the store changed since
  // open.
  const uint8_t* block_data(std::size_t i, std::string* err = nullptr) const;

 private:
  // Owns the open file descriptor; move-only, closed on destruction.
  struct File {
    int fd = -1;
    File() = default;
    File(File&& o) noexcept : fd(o.fd) { o.fd = -1; }
    File& operator=(File&& o) noexcept;
    ~File();
  };

  // Reads n bytes at `offset` into p, then checks the file still has
  // its size and mtime from open. False, with *err set, otherwise.
  bool read_at(uint8_t* p, std::size_t n, uint64_t offset,
               std::string* err) const;

  std::string path_;
  File file_;
  uint64_t size_ = 0;  // file size and mtime at open
  int64_t mtime_ns_ = 0;
  uint64_t payload_end_ = 0;  // index_offset: where the blocks end
  StoreMeta meta_;
  std::vector<StoreBlockMeta> blocks_;
  uint64_t total_records_ = 0;
  // The read window: file bytes [window_offset_, +window_len_).
  mutable std::vector<uint8_t> window_;
  mutable uint64_t window_offset_ = 0;
  mutable std::size_t window_len_ = 0;
};

}  // namespace prr::obs
