// On-disk format of the sweep-scale trace store (DESIGN.md §14) and the
// varint/zigzag primitives every part of it shares.
//
// A store file persists the TraceRecords of selected connections from one
// experiment arm, column-grouped and delta-encoded so a million-connection
// sweep's capture is a few tens of bytes per sampled record instead of the
// in-memory 64:
//
//   file    := header block* index footer
//   header  := magic8 "PRRSTOR1" | u32le version | u32le flags
//            | varint seed | vstr arm | vstr policy | vstr scenario
//   block   := one connection's records (or one segment of them when a
//              connection exceeds kMaxBlockRecords), stored as columns in
//              this order, each column fully encoded before the next:
//                at_ns  : zigzag-varint delta (vs previous record)
//                type   : raw u8 per record
//                a      : raw u8 per record
//                b      : varint per record
//                f[0..5]: six columns, each zigzag-varint delta within
//                         its own column (seq/cwnd-like fields grow
//                         slowly, so deltas are short)
//              Block geometry (conn id, byte length, record count, flags)
//              lives only in the index — blocks carry zero framing bytes.
//   index   := varint block_count, then per block:
//                varint conn_delta   (conn − previous block's conn;
//                                     blocks are written in ascending
//                                     conn order, segments in stream
//                                     order, so deltas are ≥ 0)
//              | varint byte_len | varint record_count | u8 flags
//              Block offsets are implied: blocks are contiguous from the
//              end of the header.
//   footer  := u64le index_offset | u64le digest | magic8 "PRRSTEND"
//              digest = word-folded FNV 64 (StoreDigest below) over
//              every byte of the file before the digest field itself
//              (header + blocks + index + index_offset). A truncated or
//              bit-flipped file fails to open; readers never see
//              partial data.
//
// Determinism: every encoded byte is a pure function of (record stream,
// conn id, header meta). The experiment harness appends blocks in
// ascending connection-id order at any thread count, so store files are
// byte-identical across threads 1/4/8 and across fork-per-shard runs
// merged by connection id (StoreDeterminism.* and
// StoreLive.MergeOfRangeShardsIsByteIdentical enforce both).
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace prr::obs {

inline constexpr char kStoreMagic[8] = {'P', 'R', 'R', 'S',
                                        'T', 'O', 'R', '1'};
inline constexpr char kStoreEndMagic[8] = {'P', 'R', 'R', 'S',
                                           'T', 'E', 'N', 'D'};
inline constexpr uint32_t kStoreVersion = 1;
// Fixed footer: index_offset + digest + end magic.
inline constexpr std::size_t kStoreFooterBytes = 8 + 8 + 8;

// A connection whose ring holds more than this many records is split
// into multiple blocks with the same conn id (stream order preserved),
// bounding the encoder's scratch buffer — and therefore the writer's
// peak memory — regardless of ring capacity.
inline constexpr std::size_t kMaxBlockRecords = 1u << 14;

// Block flags (index `flags` byte).
inline constexpr uint8_t kBlockFull = 1;       // kept whole by a trigger
inline constexpr uint8_t kBlockSampled = 2;    // kept by 1-in-N sampling
inline constexpr uint8_t kBlockTruncated = 4;  // ring wrapped: head lost

// Geometry of one block as the index records it. `offset` is derived by
// the reader (blocks are contiguous); the writer tracks it implicitly.
struct StoreBlockMeta {
  uint64_t conn = 0;
  uint64_t offset = 0;  // from start of file (reader-side only)
  uint32_t bytes = 0;
  uint32_t records = 0;
  uint8_t flags = 0;
};

// --- varint / zigzag primitives -------------------------------------

// LEB128 unsigned varint, 1–10 bytes.
inline void put_varint(std::vector<uint8_t>& out, uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<uint8_t>(v));
}

// Reads a varint from [p, end); advances *p. Returns false on overrun
// or a varint longer than 10 bytes (malformed input, never emitted).
inline bool get_varint(const uint8_t** p, const uint8_t* end,
                       uint64_t* out) {
  uint64_t v = 0;
  int shift = 0;
  while (*p < end && shift < 64) {
    const uint8_t byte = *(*p)++;
    v |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) {
      *out = v;
      return true;
    }
    shift += 7;
  }
  return false;
}

// Raw-cursor form for the encoder's hot loop: the caller guarantees at
// least kMaxVarintBytes of headroom, so no per-byte capacity check.
inline constexpr std::size_t kMaxVarintBytes = 10;
inline void put_varint_raw(uint8_t*& p, uint64_t v) {
  while (v >= 0x80) {
    *p++ = static_cast<uint8_t>(v) | 0x80;
    v >>= 7;
  }
  *p++ = static_cast<uint8_t>(v);
}

// Zigzag: small negative deltas stay small on the wire.
inline uint64_t zigzag_encode(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^
         static_cast<uint64_t>(v >> 63);
}
inline int64_t zigzag_decode(uint64_t v) {
  return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

inline void put_zigzag(std::vector<uint8_t>& out, int64_t v) {
  put_varint(out, zigzag_encode(v));
}
inline void put_zigzag_raw(uint8_t*& p, int64_t v) {
  put_varint_raw(p, zigzag_encode(v));
}
inline bool get_zigzag(const uint8_t** p, const uint8_t* end,
                       int64_t* out) {
  uint64_t u = 0;
  if (!get_varint(p, end, &u)) return false;
  *out = zigzag_decode(u);
  return true;
}

// Length-prefixed string.
inline void put_vstr(std::vector<uint8_t>& out, const std::string& s) {
  put_varint(out, s.size());
  out.insert(out.end(), s.begin(), s.end());
}
inline bool get_vstr(const uint8_t** p, const uint8_t* end,
                     std::string* out) {
  uint64_t n = 0;
  if (!get_varint(p, end, &n)) return false;
  if (static_cast<uint64_t>(end - *p) < n) return false;
  out->assign(reinterpret_cast<const char*>(*p),
              static_cast<std::size_t>(n));
  *p += n;
  return true;
}

inline void put_u32le(std::vector<uint8_t>& out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<uint8_t>(v >> (8 * i)));
}
inline void put_u64le(std::vector<uint8_t>& out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<uint8_t>(v >> (8 * i)));
}
inline uint64_t get_u64le(const uint8_t* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(p[i]) << (8 * i);
  return v;
}
inline uint32_t get_u32le(const uint8_t* p) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(p[i]) << (8 * i);
  return v;
}

// Incremental word-folded FNV 64 — the file digest. Seeded with the
// standard FNV offset basis, but folding eight little-endian bytes per
// multiply instead of one: each step `h = (h ^ word) * prime` is a
// bijection in both h and word, so any single-word difference (bit
// flip, truncation mid-word via the length-tagged tail) always changes
// the final value, at an eighth of byte-wise FNV-1a's cost — the
// multiply chain is the serial bottleneck when digesting megabytes of
// capture per sweep. The value is independent of how feed() calls chunk
// the stream: partial words buffer until eight bytes accumulate, and
// value() folds any unfinished tail together with its byte count.
struct StoreDigest {
  uint64_t h = 1469598103934665603ull;
  uint64_t pending = 0;  // partial word, little-endian, `have` bytes
  uint32_t have = 0;

  void mix(uint64_t w) {
    h ^= w;
    h *= 1099511628211ull;
  }
  void feed(const uint8_t* p, std::size_t n) {
    while (have != 0 && n != 0) {
      pending |= static_cast<uint64_t>(*p++) << (8 * have);
      --n;
      if (++have == 8) {
        mix(pending);
        pending = 0;
        have = 0;
      }
    }
    while (n >= 8) {
      mix(get_u64le(p));
      p += 8;
      n -= 8;
    }
    while (n != 0) {
      pending |= static_cast<uint64_t>(*p++) << (8 * have);
      ++have;
      --n;
    }
  }
  // Digest of everything fed so far; feed() may continue afterwards.
  uint64_t value() const {
    if (have == 0) return h;
    uint64_t v = h;
    v ^= pending;
    v *= 1099511628211ull;
    v ^= have;
    v *= 1099511628211ull;
    return v;
  }
};

// Store metadata carried in the header: enough to identify what produced
// the file (and for merge to refuse mixing files from different runs).
struct StoreMeta {
  uint32_t version = kStoreVersion;
  uint64_t seed = 0;
  std::string arm;
  std::string policy;
  std::string scenario;

  bool operator==(const StoreMeta& o) const {
    return version == o.version && seed == o.seed && arm == o.arm &&
           policy == o.policy && scenario == o.scenario;
  }
};

// Per-arm store path: `prefix` with a sanitized arm name spliced in
// before a trailing ".prrstore" (appended otherwise). Both run_arm and
// run_arms route through this, so a caller always knows where an arm's
// file landed: ("sweep.prrstore", "RFC 3517") → "sweep.rfc_3517.prrstore".
std::string store_path_for_arm(const std::string& prefix,
                               const std::string& arm_name);

}  // namespace prr::obs
