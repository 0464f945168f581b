// Wire model of a TCP segment. One type carries both directions: data
// segments (seq/len) from sender to receiver and pure ACKs (ack/SACK
// blocks/rwnd) back. Sequence numbers are 64-bit simulator-internal values;
// wrap-aware 32-bit wire arithmetic lives in tcp/seqnum.h.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <type_traits>

#include "sim/time.h"

namespace prr::net {

// Half-open byte range [start, end).
struct SackBlock {
  uint64_t start = 0;
  uint64_t end = 0;
  uint64_t len() const { return end - start; }
  friend bool operator==(const SackBlock&, const SackBlock&) = default;
};

// The SACK blocks of one ACK in fixed storage for the RFC 2018 wire cap
// of 4 blocks, so a Segment stays trivially copyable and building one
// never allocates. Every producer caps at 4; a fifth block is a bug in
// the producer and push_back throws rather than truncating.
class SackList {
 public:
  static constexpr std::size_t kMaxBlocks = 4;
  using iterator = SackBlock*;
  using const_iterator = const SackBlock*;

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  void clear() { size_ = 0; }
  void push_back(const SackBlock& b) {
    if (size_ == kMaxBlocks) {
      throw std::length_error("SackList: more than 4 SACK blocks");
    }
    blocks_[size_++] = b;
  }
  template <typename It>
  void assign(It first, It last) {
    clear();
    for (; first != last; ++first) push_back(*first);
  }

  SackBlock& operator[](std::size_t i) { return blocks_[i]; }
  const SackBlock& operator[](std::size_t i) const { return blocks_[i]; }
  iterator begin() { return blocks_; }
  iterator end() { return blocks_ + size_; }
  const_iterator begin() const { return blocks_; }
  const_iterator end() const { return blocks_ + size_; }

  friend bool operator==(const SackList& a, const SackList& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  SackBlock blocks_[kMaxBlocks];
  uint32_t size_ = 0;
};

struct Segment {
  // --- data direction ---
  uint64_t seq = 0;    // first byte carried
  uint32_t len = 0;    // payload bytes (0 for pure ACK)
  bool is_retransmit = false;

  // --- ack direction ---
  bool is_ack = false;
  uint64_t ack = 0;  // cumulative: next byte expected
  SackList sacks;  // most recently received first
  std::optional<SackBlock> dsack;      // duplicate-SACK report (RFC 2883)
  uint64_t rwnd = 0;                   // receive window in bytes

  // --- ECN (RFC 3168), when negotiated ---
  bool ect = false;  // ECN-capable transport (data direction)
  bool ce = false;   // congestion experienced (set by AQM marking)
  bool ece = false;  // ECN echo (ack direction)
  bool cwr = false;  // congestion window reduced (data direction)

  // --- timestamp option (RFC 7323), when negotiated ---
  bool has_ts = false;
  uint32_t tsval = 0;  // sender clock, milliseconds (wraps)
  uint32_t tsecr = 0;  // echoed peer timestamp

  // --- bookkeeping ---
  uint64_t id = 0;          // unique per transmission
  sim::Time tx_time;        // stamped by the sending endpoint

  static constexpr uint32_t kHeaderBytes = 40;  // IP + TCP, no options
  static constexpr uint32_t kSackBlockBytes = 8;
  static constexpr uint32_t kTimestampBytes = 12;

  uint32_t wire_size() const {
    uint32_t options = 0;
    if (!sacks.empty() || dsack.has_value()) {
      options = 2 + kSackBlockBytes * static_cast<uint32_t>(
                        sacks.size() + (dsack.has_value() ? 1 : 0));
    }
    if (has_ts) options += kTimestampBytes;
    return kHeaderBytes + options + len;
  }
};

// Links copy a segment into a pool slot once per hop and hand it on in
// place; that copy is a memcpy only while this holds.
static_assert(std::is_trivially_copyable_v<Segment>);

}  // namespace prr::net
