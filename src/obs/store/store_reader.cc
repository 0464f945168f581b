#include "obs/store/store_reader.h"

#include <cstdio>

#include "obs/store/store_writer.h"

namespace prr::obs {

namespace {

bool fail(std::string* err, const std::string& what) {
  if (err != nullptr) *err = what;
  return false;
}

// One read into a buffer sized from the file length: no regrowth, so
// the reader's peak memory is the file size, not up to twice it.
bool slurp(const std::string& path, std::string* out, std::string* err) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return fail(err, "cannot open " + path);
  long size = -1;
  if (std::fseek(f, 0, SEEK_END) == 0) size = std::ftell(f);
  bool clean = size >= 0 && std::fseek(f, 0, SEEK_SET) == 0;
  if (clean) {
    out->resize(static_cast<std::size_t>(size));
    clean = std::fread(out->data(), 1, out->size(), f) == out->size() &&
            std::fgetc(f) == EOF && std::ferror(f) == 0;
  }
  std::fclose(f);
  if (!clean) return fail(err, "read error on " + path);
  return true;
}

}  // namespace

bool StoreReader::open(const std::string& path, StoreReader* out,
                       std::string* err, bool verify_digest) {
  StoreReader r;
  if (!slurp(path, &r.file_, err)) return false;
  const uint8_t* file =
      reinterpret_cast<const uint8_t*>(r.file_.data());
  const std::size_t size = r.file_.size();

  // Structural floor: header magic + version + flags + one varint seed +
  // three empty vstrs would still exceed this, but the footer alone is
  // enough to reject obvious truncation before reading fields.
  if (size < 8 + kStoreFooterBytes) {
    return fail(err, path + ": too short to be a trace store");
  }
  if (std::memcmp(file + size - 8, kStoreEndMagic, 8) != 0) {
    return fail(err, path + ": missing end magic (truncated store?)");
  }
  const uint64_t digest = get_u64le(file + size - 16);
  const uint64_t index_offset = get_u64le(file + size - kStoreFooterBytes);
  // Everything before the digest field is under the digest.
  if (verify_digest) {
    StoreDigest d;
    d.feed(file, size - 16);
    if (d.value() != digest) {
      return fail(err, path + ": digest mismatch (corrupted store)");
    }
  }

  // Header.
  if (std::memcmp(file, kStoreMagic, 8) != 0) {
    return fail(err, path + ": bad header magic");
  }
  if (index_offset < 8 || index_offset > size - kStoreFooterBytes) {
    return fail(err, path + ": index offset out of range");
  }
  const uint8_t* p = file + 8;
  const uint8_t* header_end = file + index_offset;
  if (header_end - p < 8) return fail(err, path + ": short header");
  r.meta_.version = get_u32le(p);
  p += 4;
  p += 4;  // header flags, reserved
  if (r.meta_.version != kStoreVersion) {
    return fail(err, path + ": unsupported store version " +
                         std::to_string(r.meta_.version));
  }
  if (!get_varint(&p, header_end, &r.meta_.seed) ||
      !get_vstr(&p, header_end, &r.meta_.arm) ||
      !get_vstr(&p, header_end, &r.meta_.policy) ||
      !get_vstr(&p, header_end, &r.meta_.scenario)) {
    return fail(err, path + ": malformed header");
  }
  const uint64_t blocks_begin =
      static_cast<uint64_t>(p - file);  // blocks start after the header

  // Index. Offsets are implied: blocks are contiguous from blocks_begin.
  const uint8_t* ip = file + index_offset;
  const uint8_t* index_end = file + size - kStoreFooterBytes;
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
  uint64_t offset = blocks_begin;
  for (uint64_t i = 0; i < block_count; ++i) {
    uint64_t conn_delta = 0, bytes = 0, records = 0;
    if (!get_varint(&ip, index_end, &conn_delta) ||
        !get_varint(&ip, index_end, &bytes) ||
        !get_varint(&ip, index_end, &records) || ip >= index_end) {
      return fail(err, path + ": malformed index entry");
    }
    const uint8_t flags = *ip++;
    // A block holds at least one record of at least kMinRecordBytes, so
    // a count the payload cannot hold is corrupt, and is refused here
    // rather than sizing a decode buffer from it.
    if (records == 0 || bytes > UINT32_MAX || records > UINT32_MAX ||
        records * kMinRecordBytes > bytes) {
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
  *out = std::move(r);
  return true;
}

bool StoreReader::read_block(std::size_t i, std::vector<TraceRecord>* out,
                             ColumnMask columns) const {
  const StoreBlockMeta& b = blocks_[i];
  return decode_block(block_data(i), b.bytes, b.records, b.conn, out,
                      columns);
}

bool StoreReader::block_types(std::size_t i, uint32_t* types) const {
  static_assert(static_cast<uint32_t>(TraceType::kCount) <= 32,
                "a set of record types is one uint32_t");
  const StoreBlockMeta& b = blocks_[i];
  const uint8_t* p = block_data(i);
  const uint8_t* end = p + b.bytes;
  if (!skip_varints(&p, end, b.records)) return false;  // at_ns
  if (static_cast<std::size_t>(end - p) < b.records) return false;
  uint32_t seen = 0;
  for (uint32_t k = 0; k < b.records; ++k) {
    if (p[k] >= static_cast<uint8_t>(TraceType::kCount)) return false;
    seen |= 1u << p[k];
  }
  *types = seen;
  return true;
}

bool StoreReader::read_connection(uint64_t conn,
                                  std::vector<TraceRecord>* out,
                                  ColumnMask columns) const {
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
    if (!read_block(i, out, columns)) return false;
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
