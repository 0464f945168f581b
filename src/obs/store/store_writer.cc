#include "obs/store/store_writer.h"

#include <algorithm>
#include <numeric>

#include "obs/flight_recorder.h"
#include "obs/store/store_reader.h"

namespace prr::obs {

std::string store_path_for_arm(const std::string& prefix,
                               const std::string& arm_name) {
  std::string arm;
  arm.reserve(arm_name.size());
  for (char c : arm_name) {
    if ((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9')) {
      arm.push_back(c);
    } else if (c >= 'A' && c <= 'Z') {
      arm.push_back(static_cast<char>(c - 'A' + 'a'));
    } else {
      arm.push_back('_');
    }
  }
  const std::string ext = ".prrstore";
  if (prefix.size() >= ext.size() &&
      prefix.compare(prefix.size() - ext.size(), ext.size(), ext) == 0) {
    return prefix.substr(0, prefix.size() - ext.size()) + "." + arm + ext;
  }
  return prefix + "." + arm + ext;
}

void StoreShard::merge(StoreShard&& other) {
  if (other.empty()) return;
  const uint64_t base = bytes.size();
  bytes.insert(bytes.end(), other.bytes.begin(), other.bytes.end());
  blocks.reserve(blocks.size() + other.blocks.size());
  for (StoreBlockMeta b : other.blocks) {
    b.offset += base;
    blocks.push_back(b);
  }
  other.clear();
}

namespace {

// Each f column is delta-coded against the previous record of the same
// type, so the encoder keeps one previous value per type. A type byte
// past kCount (never emitted by the simulator, and refused by
// decode_block) shares the one extra slot, keeping the table in bounds
// for any byte.
constexpr std::size_t kTypeSlots =
    static_cast<std::size_t>(TraceType::kCount) + 1;

std::size_t type_slot(TraceType t) {
  return std::min(static_cast<std::size_t>(t), kTypeSlots - 1);
}

}  // namespace

void StoreEncoder::encode(const TraceRecord* records, std::size_t n,
                          uint64_t conn, uint8_t flags,
                          StoreShard* shard) {
  std::size_t done = 0;
  while (done < n) {
    const std::size_t count = std::min(n - done, kMaxBlockRecords);
    const TraceRecord* r = records + done;
    // Sizing scratch for the worst case once and writing through a raw
    // cursor keeps the capture hot path free of per-byte capacity
    // checks; scratch is bounded by kMaxBlockBytes and reused.
    const std::size_t worst = count * kMaxRecordBytes;
    if (scratch_.size() < worst) scratch_.resize(worst);
    uint8_t* p = scratch_.data();
    // Column order: at_ns, type, a, b, f0..f5 (store_format.h).
    int64_t prev_at = 0;
    for (std::size_t i = 0; i < count; ++i) {
      put_zigzag_raw(p, wrapping_sub(r[i].at_ns, prev_at));
      prev_at = r[i].at_ns;
    }
    for (std::size_t i = 0; i < count; ++i) {
      *p++ = static_cast<uint8_t>(r[i].type);
    }
    for (std::size_t i = 0; i < count; ++i) *p++ = r[i].a;
    for (std::size_t i = 0; i < count; ++i) put_varint_raw(p, r[i].b);
    for (int k = 0; k < 6; ++k) {
      uint64_t prev[kTypeSlots] = {};
      for (std::size_t i = 0; i < count; ++i) {
        uint64_t& last = prev[type_slot(r[i].type)];
        put_zigzag_raw(p, static_cast<int64_t>(r[i].f[k] - last));
        last = r[i].f[k];
      }
    }
    StoreBlockMeta meta;
    meta.conn = conn;
    meta.offset = shard->bytes.size();
    meta.bytes = static_cast<uint32_t>(p - scratch_.data());
    meta.records = static_cast<uint32_t>(count);
    meta.flags = flags;
    shard->bytes.insert(shard->bytes.end(), scratch_.data(), p);
    shard->blocks.push_back(meta);
    done += count;
  }
}

void StoreEncoder::encode(const FlightRecorder& ring, uint64_t conn,
                          uint8_t flags, StoreShard* shard) {
  const std::size_t n = ring.size();
  if (n == 0) return;
  if (ring.dropped() > 0) flags |= kBlockTruncated;
  // An unwrapped ring (the common case: capacity above the connection's
  // record count) is already one flat run — encode straight from ring
  // storage, no copy. A wrapped ring is flattened with two bulk copies
  // first: block boundaries (every kMaxBlockRecords) and delta resets
  // are positions in the logical record stream, so the two runs cannot
  // be encoded independently without changing the bytes.
  const FlightRecorder::Runs runs = ring.runs();
  if (runs.len[1] == 0) {
    encode(runs.ptr[0], n, conn, flags, shard);
    return;
  }
  static thread_local std::vector<TraceRecord> window;
  window.resize(n);
  std::copy(runs.ptr[0], runs.ptr[0] + runs.len[0], window.data());
  std::copy(runs.ptr[1], runs.ptr[1] + runs.len[1],
            window.data() + runs.len[0]);
  encode(window.data(), n, conn, flags, shard);
}

namespace {

// decode_block's body. kAll fixes the mask at compile time, so the full
// decode compiles without the skip paths; with the mask known only at
// run time it measured ~8% slower per record.
template <bool kAll>
bool decode_columns(const uint8_t* data, std::size_t bytes,
                    std::size_t records, uint64_t conn,
                    std::vector<TraceRecord>* out, ColumnMask columns) {
  if (kAll) columns = kAllColumns;
  const uint8_t* p = data;
  const uint8_t* end = data + bytes;
  const std::size_t base = out->size();
  out->resize(base + records);
  TraceRecord* r = out->data() + base;
  if (columns & kColumnAt) {
    int64_t at = 0;
    for (std::size_t i = 0; i < records; ++i) {
      int64_t delta = 0;
      if (!get_zigzag(&p, end, &delta)) return false;
      at = wrapping_add(at, delta);
      r[i].at_ns = at;
    }
  } else if (!skip_varints(&p, end, records)) {
    return false;
  }
  if (static_cast<std::size_t>(end - p) < 2 * records) return false;
  // The type column is always decoded: every query reads it, and its
  // range check is part of what makes a block well formed.
  for (std::size_t i = 0; i < records; ++i) {
    const uint8_t t = *p++;
    if (t >= static_cast<uint8_t>(TraceType::kCount)) return false;
    r[i].type = static_cast<TraceType>(t);
    r[i].conn = static_cast<uint32_t>(conn);
  }
  if (columns & kColumnA) {
    for (std::size_t i = 0; i < records; ++i) r[i].a = *p++;
  } else {
    p += records;
  }
  if (columns & kColumnB) {
    for (std::size_t i = 0; i < records; ++i) {
      uint64_t v = 0;
      if (!get_varint(&p, end, &v)) return false;
      if (v > UINT16_MAX) return false;
      r[i].b = static_cast<uint16_t>(v);
    }
  } else {
    // Skipped b values are still range-checked, so a projected decode
    // accepts exactly the blocks a full one does. A one-byte varint is in
    // range as it stands; only longer ones are decoded.
    for (std::size_t i = 0; i < records; ++i) {
      if (p < end && *p < 0x80) {
        ++p;
        continue;
      }
      uint64_t v = 0;
      if (!get_varint(&p, end, &v) || v > UINT16_MAX) return false;
    }
  }
  for (int k = 0; k < 6; ++k) {
    if ((columns & (kColumnF0 << k)) == 0) {
      if (!skip_varints(&p, end, records)) return false;
      continue;
    }
    // Types were range-checked above, so every one indexes the table.
    uint64_t prev[kTypeSlots] = {};
    for (std::size_t i = 0; i < records; ++i) {
      int64_t delta = 0;
      if (!get_zigzag(&p, end, &delta)) return false;
      uint64_t& last = prev[static_cast<std::size_t>(r[i].type)];
      last += static_cast<uint64_t>(delta);
      r[i].f[k] = last;
    }
  }
  // Trailing garbage inside the block payload is as malformed as a
  // short one.
  return p == end;
}

}  // namespace

bool decode_block(const uint8_t* data, std::size_t bytes,
                  std::size_t records, uint64_t conn,
                  std::vector<TraceRecord>* out, ColumnMask columns) {
  return columns == kAllColumns
             ? decode_columns<true>(data, bytes, records, conn, out, columns)
             : decode_columns<false>(data, bytes, records, conn, out,
                                     columns);
}

StoreWriter::~StoreWriter() {
  if (f_ != nullptr) {
    std::fclose(f_);  // abandoned without finish(): leave no fd behind
  }
}

bool StoreWriter::write(const uint8_t* p, std::size_t n) {
  if (failed_ || f_ == nullptr) return false;
  if (std::fwrite(p, 1, n, f_) != n) {
    failed_ = true;
    return false;
  }
  digest_.feed(p, n);
  offset_ += n;
  return true;
}

bool StoreWriter::open(const std::string& path, const StoreMeta& meta) {
  if (f_ != nullptr) return false;
  f_ = std::fopen(path.c_str(), "wb");
  if (f_ == nullptr) {
    failed_ = true;
    return false;
  }
  // Blocks are ~1-2 kB; stdio's default buffer would turn nearly every
  // append into a write(2). One big buffer makes the per-connection
  // flush path syscall-free until it fills.
  buf_.resize(1u << 20);
  std::setvbuf(f_, reinterpret_cast<char*>(buf_.data()), _IOFBF,
               buf_.size());
  path_ = path;
  std::vector<uint8_t> header;
  header.insert(header.end(), kStoreMagic, kStoreMagic + 8);
  put_u32le(header, meta.version);
  put_u32le(header, 0);  // header flags, reserved
  put_varint(header, meta.seed);
  put_vstr(header, meta.arm);
  put_vstr(header, meta.policy);
  put_vstr(header, meta.scenario);
  return write(header.data(), header.size());
}

bool StoreWriter::append_block(const StoreBlockMeta& meta,
                               const uint8_t* data) {
  if (!write(data, meta.bytes)) return false;
  if (index_.empty() || index_.back().conn != meta.conn) ++conns_;
  StoreBlockMeta m = meta;
  m.offset = 0;  // offsets are implied on disk; don't persist shard ones
  index_.push_back(m);
  records_ += meta.records;
  payload_bytes_ += meta.bytes;
  return true;
}

bool StoreWriter::append_shard(const StoreShard& shard) {
  for (const StoreBlockMeta& b : shard.blocks) {
    if (!append_block(b, shard.bytes.data() + b.offset)) return false;
  }
  return true;
}

bool StoreWriter::finish() {
  if (finished_) return !failed_;
  finished_ = true;
  if (f_ == nullptr) return false;
  const uint64_t index_offset = offset_;
  std::vector<uint8_t> tail;
  put_varint(tail, index_.size());
  uint64_t prev_conn = 0;
  for (const StoreBlockMeta& b : index_) {
    put_varint(tail, b.conn - prev_conn);
    prev_conn = b.conn;
    put_varint(tail, b.bytes);
    put_varint(tail, b.records);
    tail.push_back(b.flags);
  }
  put_u64le(tail, index_offset);
  // Everything written so far plus the index and index_offset is under
  // the digest; the digest field itself and the end magic are not.
  if (!write(tail.data(), tail.size())) {
    std::fclose(f_);
    f_ = nullptr;
    return false;
  }
  std::vector<uint8_t> end;
  put_u64le(end, digest_.value());
  end.insert(end.end(), kStoreEndMagic, kStoreEndMagic + 8);
  const bool wrote =
      std::fwrite(end.data(), 1, end.size(), f_) == end.size();
  const bool clean = std::ferror(f_) == 0;
  const bool closed = std::fclose(f_) == 0;
  f_ = nullptr;
  if (!wrote || !clean || !closed) failed_ = true;
  return !failed_;
}

bool merge_store_files(const std::vector<std::string>& inputs,
                       const std::string& out_path, std::string* err) {
  if (inputs.empty()) {
    if (err != nullptr) *err = "no input stores";
    return false;
  }
  std::vector<StoreReader> readers(inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    if (!StoreReader::open(inputs[i], &readers[i], err)) return false;
    if (!(readers[i].meta() == readers[0].meta())) {
      if (err != nullptr) {
        *err = "store meta mismatch between " + inputs[0] + " and " +
               inputs[i] + " (different seed/arm/policy/scenario)";
      }
      return false;
    }
  }

  // Global block order: ascending conn; ties (same-conn segments within
  // one store must stay in stream order) break by (input, block) order
  // via the stable sort. Inputs cover disjoint id ranges in the fork-
  // per-shard protocol, so this reproduces the single-process file.
  struct Ref {
    std::size_t input;
    std::size_t block;
    uint64_t conn;
  };
  std::vector<Ref> order;
  for (std::size_t i = 0; i < readers.size(); ++i) {
    const auto& blocks = readers[i].blocks();
    for (std::size_t b = 0; b < blocks.size(); ++b) {
      order.push_back({i, b, blocks[b].conn});
    }
  }
  std::stable_sort(order.begin(), order.end(),
                   [](const Ref& a, const Ref& b) {
                     return a.conn < b.conn;
                   });

  // OUT may name one of the inputs, which are read while the merge
  // writes, so the merge goes to a temporary file next to OUT that
  // replaces it only once finished; a failed merge leaves no partial OUT.
  const std::string tmp_path = out_path + ".partial";
  StoreWriter writer;
  const auto abandon = [&](const std::string& what) {
    std::remove(tmp_path.c_str());
    if (err != nullptr) *err = what;
    return false;
  };
  if (!writer.open(tmp_path, readers[0].meta())) {
    return abandon("cannot open " + tmp_path + " for write");
  }
  std::string why;
  for (const Ref& ref : order) {
    const StoreReader& reader = readers[ref.input];
    const uint8_t* data = reader.block_data(ref.block, &why);
    if (data == nullptr) return abandon(why);
    if (!writer.append_block(reader.blocks()[ref.block], data)) {
      return abandon("write failure on " + tmp_path);
    }
  }
  if (!writer.finish()) return abandon("short write finishing " + tmp_path);
  if (std::rename(tmp_path.c_str(), out_path.c_str()) != 0) {
    return abandon("cannot rename " + tmp_path + " to " + out_path);
  }
  return true;
}

}  // namespace prr::obs
