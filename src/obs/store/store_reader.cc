#include "obs/store/store_reader.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "obs/store/store_writer.h"

namespace prr::obs {

namespace {

bool fail(std::string* err, const std::string& what) {
  if (err != nullptr) *err = what;
  return false;
}

int64_t mtime_ns(const struct stat& st) {
  return static_cast<int64_t>(st.st_mtim.tv_sec) * 1'000'000'000 +
         st.st_mtim.tv_nsec;
}

bool decode_failed(std::string* err, const std::string& path,
                   std::size_t block, uint64_t conn) {
  return fail(err, path + ": block " + std::to_string(block) + " (conn " +
                       std::to_string(conn) + ") failed to decode");
}

// The header's fields from [p, end), which holds at least the whole
// header. Sets *header_bytes to its length. Empty on success, else what
// is wrong with it.
std::string parse_header(const uint8_t* p, const uint8_t* end,
                         StoreMeta* meta, uint64_t* header_bytes) {
  const uint8_t* const begin = p;
  if (end - p < 8 || std::memcmp(p, kStoreMagic, 8) != 0) {
    return "bad header magic";
  }
  p += 8;
  if (end - p < 8) return "short header";
  meta->version = get_u32le(p);
  p += 4;
  p += 4;  // header flags, reserved
  if (meta->version != kStoreVersion) {
    return "unsupported store version " + std::to_string(meta->version);
  }
  if (!get_varint(&p, end, &meta->seed) ||
      !get_vstr(&p, end, &meta->arm) ||
      !get_vstr(&p, end, &meta->policy) ||
      !get_vstr(&p, end, &meta->scenario)) {
    return "malformed header";
  }
  *header_bytes = static_cast<uint64_t>(p - begin);
  return {};
}

}  // namespace

StoreReader::File& StoreReader::File::operator=(File&& o) noexcept {
  if (this != &o) {
    if (fd >= 0) ::close(fd);
    fd = o.fd;
    o.fd = -1;
  }
  return *this;
}

StoreReader::File::~File() {
  if (fd >= 0) ::close(fd);
}

bool StoreReader::read_at(uint8_t* p, std::size_t n, uint64_t offset,
                          std::string* err) const {
  while (n > 0) {
    const ssize_t got = ::pread(file_.fd, p, n, static_cast<off_t>(offset));
    if (got < 0 && errno == EINTR) continue;
    if (got < 0) {
      return fail(err, path_ + ": read error: " + std::strerror(errno));
    }
    if (got == 0) break;
    p += got;
    n -= static_cast<std::size_t>(got);
    offset += static_cast<uint64_t>(got);
  }
  // Checked after the read, so a change made before or during it shows.
  struct stat st;
  if (n > 0 || ::fstat(file_.fd, &st) != 0 ||
      static_cast<uint64_t>(st.st_size) != size_ ||
      mtime_ns(st) != mtime_ns_) {
    return fail(err, path_ + ": store changed since open");
  }
  return true;
}

bool StoreReader::open(const std::string& path, StoreReader* out,
                       std::string* err, bool verify_digest) {
  StoreReader r;
  r.path_ = path;
  r.file_.fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  struct stat st;
  if (r.file_.fd < 0 || ::fstat(r.file_.fd, &st) != 0) {
    return fail(err, "cannot open " + path);
  }
  r.size_ = static_cast<uint64_t>(st.st_size);
  r.mtime_ns_ = mtime_ns(st);
  const uint64_t size = r.size_;

  // Structural floor: header magic + version + flags + one varint seed +
  // three empty vstrs would still exceed this, but the footer alone is
  // enough to reject obvious truncation before reading fields.
  if (size < 8 + kStoreFooterBytes) {
    return fail(err, path + ": too short to be a trace store");
  }
  // The footer says where the index starts, so it is read first; the
  // pass below reads it again, and a footer that differs between the
  // two reads is a file changing under the reader.
  uint8_t footer[kStoreFooterBytes];
  if (!r.read_at(footer, kStoreFooterBytes, size - kStoreFooterBytes, err)) {
    return false;
  }
  if (std::memcmp(footer + 16, kStoreEndMagic, 8) != 0) {
    return fail(err, path + ": missing end magic (truncated store?)");
  }
  const uint64_t index_offset = get_u64le(footer);
  if (index_offset < 8 || index_offset > size - kStoreFooterBytes) {
    return fail(err, path + ": index offset out of range");
  }

  // One pass front to back through the window. Everything before the
  // digest field is under the digest; the header is parsed from the
  // first read, and the index and footer are kept from the reads that
  // reach them. Without the digest check only those reads are made.
  const uint64_t digest_end = size - 16;
  std::vector<uint8_t> tail(size - index_offset);  // index + footer
  r.window_.resize(std::min<uint64_t>(kWindowBytes, size));
  StoreDigest digest;
  std::string header_error;
  uint64_t header_bytes = 0;
  for (uint64_t off = 0; off < size;) {
    if (!verify_digest && off > 0 && off < index_offset) off = index_offset;
    const std::size_t n =
        static_cast<std::size_t>(std::min<uint64_t>(r.window_.size(),
                                                    size - off));
    uint8_t* chunk = r.window_.data();
    if (!r.read_at(chunk, n, off, err)) return false;
    if (verify_digest && off < digest_end) {
      digest.feed(chunk, static_cast<std::size_t>(
                             std::min<uint64_t>(n, digest_end - off)));
    }
    if (off == 0) {
      header_error = parse_header(
          chunk, chunk + std::min<uint64_t>(n, index_offset), &r.meta_,
          &header_bytes);
    }
    if (off + n > index_offset) {
      const uint64_t from = std::max(off, index_offset);
      std::memcpy(tail.data() + (from - index_offset), chunk + (from - off),
                  static_cast<std::size_t>(off + n - from));
    }
    off += n;
  }
  if (std::memcmp(tail.data() + tail.size() - kStoreFooterBytes, footer,
                  kStoreFooterBytes) != 0) {
    return fail(err, path + ": store changed since open");
  }
  if (verify_digest && digest.value() != get_u64le(footer + 8)) {
    return fail(err, path + ": digest mismatch (corrupted store)");
  }
  if (!header_error.empty()) return fail(err, path + ": " + header_error);

  // Index. Offsets are implied: blocks are contiguous from the end of
  // the header.
  const uint8_t* ip = tail.data();
  const uint8_t* index_end = tail.data() + tail.size() - kStoreFooterBytes;
  uint64_t block_count = 0;
  if (!get_varint(&ip, index_end, &block_count)) {
    return fail(err, path + ": malformed index");
  }
  // Each index entry is >= 4 bytes; a count implying more is garbage.
  if (block_count > static_cast<uint64_t>(index_end - ip)) {
    return fail(err, path + ": implausible block count");
  }
  r.blocks_.reserve(static_cast<std::size_t>(block_count));
  uint64_t conn = 0;
  uint64_t offset = header_bytes;
  for (uint64_t i = 0; i < block_count; ++i) {
    uint64_t conn_delta = 0, bytes = 0, records = 0;
    if (!get_varint(&ip, index_end, &conn_delta) ||
        !get_varint(&ip, index_end, &bytes) ||
        !get_varint(&ip, index_end, &records) || ip >= index_end) {
      return fail(err, path + ": malformed index entry");
    }
    const uint8_t flags = *ip++;
    // A block holds 1 to kMaxBlockRecords records, each taking
    // kMinRecordBytes to kMaxRecordBytes, so a count the payload cannot
    // hold is corrupt, and is refused here rather than sizing a decode
    // buffer or the read window from it.
    if (records == 0 || records > kMaxBlockRecords ||
        records * kMinRecordBytes > bytes ||
        bytes > records * kMaxRecordBytes) {
      return fail(err, path + ": implausible block geometry in index");
    }
    conn += conn_delta;
    StoreBlockMeta b;
    b.conn = conn;
    b.offset = offset;
    b.bytes = static_cast<uint32_t>(bytes);
    b.records = static_cast<uint32_t>(records);
    b.flags = flags;
    offset += bytes;
    if (offset > index_offset) {
      return fail(err, path + ": block extends past index");
    }
    r.blocks_.push_back(b);
    r.total_records_ += records;
  }
  if (ip != index_end) {
    return fail(err, path + ": trailing bytes after index");
  }
  if (offset != index_offset) {
    return fail(err, path + ": block payloads do not span to the index");
  }
  r.payload_end_ = index_offset;
  *out = std::move(r);
  return true;
}

const uint8_t* StoreReader::block_data(std::size_t i,
                                       std::string* err) const {
  const StoreBlockMeta& b = blocks_[i];
  if (b.offset < window_offset_ ||
      b.offset + b.bytes > window_offset_ + window_len_) {
    // Refill from this block on, as far as the window reaches: a forward
    // scan then costs one pread per window.
    const std::size_t n = static_cast<std::size_t>(std::max<uint64_t>(
        b.bytes, std::min<uint64_t>(kWindowBytes, payload_end_ - b.offset)));
    if (window_.size() < n) window_.resize(n);
    window_len_ = 0;
    if (!read_at(window_.data(), n, b.offset, err)) return nullptr;
    window_offset_ = b.offset;
    window_len_ = n;
  }
  return window_.data() + (b.offset - window_offset_);
}

bool StoreReader::read_block(std::size_t i, std::vector<TraceRecord>* out,
                             ColumnMask columns, std::string* err) const {
  const StoreBlockMeta& b = blocks_[i];
  const uint8_t* data = block_data(i, err);
  if (data == nullptr) return false;
  if (!decode_block(data, b.bytes, b.records, b.conn, out, columns)) {
    return decode_failed(err, path_, i, b.conn);
  }
  return true;
}

bool StoreReader::block_types(std::size_t i, uint32_t* types,
                              std::string* err) const {
  static_assert(static_cast<uint32_t>(TraceType::kCount) <= 32,
                "a set of record types is one uint32_t");
  const StoreBlockMeta& b = blocks_[i];
  const uint8_t* p = block_data(i, err);
  if (p == nullptr) return false;
  const uint8_t* end = p + b.bytes;
  if (!skip_varints(&p, end, b.records) ||  // at_ns
      static_cast<std::size_t>(end - p) < b.records) {
    return decode_failed(err, path_, i, b.conn);
  }
  uint32_t seen = 0;
  for (uint32_t k = 0; k < b.records; ++k) {
    if (p[k] >= static_cast<uint8_t>(TraceType::kCount)) {
      return decode_failed(err, path_, i, b.conn);
    }
    seen |= 1u << p[k];
  }
  *types = seen;
  return true;
}

bool StoreReader::read_connection(uint64_t conn,
                                  std::vector<TraceRecord>* out,
                                  ColumnMask columns,
                                  std::string* err) const {
  // Blocks are sorted by conn; binary-search the run.
  std::size_t lo = 0, hi = blocks_.size();
  while (lo < hi) {
    const std::size_t mid = (lo + hi) / 2;
    if (blocks_[mid].conn < conn) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  for (std::size_t i = lo; i < blocks_.size() && blocks_[i].conn == conn;
       ++i) {
    if (!read_block(i, out, columns, err)) return false;
  }
  return true;
}

std::vector<uint64_t> StoreReader::connections() const {
  std::vector<uint64_t> out;
  for (const StoreBlockMeta& b : blocks_) {
    if (out.empty() || out.back() != b.conn) out.push_back(b.conn);
  }
  return out;
}

}  // namespace prr::obs
