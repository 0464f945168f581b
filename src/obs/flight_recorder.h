// Flight recorder: a preallocated power-of-two ring of fixed-size
// TraceRecords (DESIGN.md §8). Writers pay a null check when tracing is
// off and a bounds-masked store when on — never a heap allocation, so
// the steady-state zero-alloc invariant holds with tracing enabled
// (tests/test_alloc_free.cc). When the ring wraps, the oldest records
// are overwritten; `dropped()` counts them. Readers (Perfetto export,
// quarantine tail capture, trace/timeseq) walk `size()` records oldest
// first via `operator[]` or take the last N via `tail()`. The ring is
// left uninitialized: no reader looks past the records written since
// the last clear(), so a page of it becomes resident only when a record
// is first written there.
//
// Instrumentation sites use the PRR_TRACE macro rather than calling
// write() directly: the record's arguments are evaluated only when a
// recorder is attached.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <new>
#include <vector>

#include "obs/trace_record.h"

namespace prr::obs {

// rec is a FlightRecorder*; the remaining arguments are forwarded to
// make_record and are evaluated only when a recorder is attached.
#define PRR_TRACE(rec, ...)                                   \
  do {                                                        \
    if (rec) (rec)->write(::prr::obs::make_record(__VA_ARGS__)); \
  } while (0)

class FlightRecorder {
 public:
  // Capacity is rounded up to a power of two; the ring is allocated
  // (uninitialized) once here and never resized.
  explicit FlightRecorder(std::size_t capacity_records = 4096);

  void write(const TraceRecord& r) {
    ring_[next_ & mask_] = r;
    ++next_;
    ++counts_[static_cast<std::size_t>(r.type)];
    if (!listeners_.empty()) {
      for (const auto& l : listeners_) l(r);
    }
  }

  std::size_t capacity() const { return mask_ + 1; }
  // Records currently held (≤ capacity).
  std::size_t size() const {
    return next_ < capacity() ? next_ : capacity();
  }
  // Records ever written, including overwritten ones.
  uint64_t total_written() const { return next_; }
  uint64_t dropped() const {
    return next_ < capacity() ? 0 : next_ - capacity();
  }
  uint64_t count(TraceType t) const {
    return counts_[static_cast<std::size_t>(t)];
  }

  // i-th surviving record, oldest first (0 ≤ i < size()).
  const TraceRecord& operator[](std::size_t i) const {
    const uint64_t oldest = next_ - size();
    return ring_[(oldest + i) & mask_];
  }

  // The surviving records as at most two contiguous runs, oldest first.
  // An unwrapped ring (the common sweep case: capacity sized above the
  // connection's record count) is a single run, letting bulk readers —
  // the store encoder — walk raw storage with no per-record rotation
  // arithmetic and no copy. len[1] == 0 unless the ring wrapped.
  struct Runs {
    const TraceRecord* ptr[2];
    std::size_t len[2];
  };
  Runs runs() const {
    const std::size_t n = size();
    const std::size_t oldest =
        static_cast<std::size_t>((next_ - n) & mask_);
    const std::size_t first =
        n < capacity() - oldest ? n : capacity() - oldest;
    return {{ring_.get() + oldest, ring_.get()}, {first, n - first}};
  }

  // Last min(max_records, size()) records, oldest first. Copies; for
  // post-mortem capture (quarantine artifacts), not the hot path.
  std::vector<TraceRecord> tail(std::size_t max_records) const;

  // Fan-out for setup-time subscribers (trace/timeseq, trace/pcap):
  // each listener sees every record as it is written. Listeners must
  // not allocate if the zero-alloc invariant matters to the caller.
  void add_listener(std::function<void(const TraceRecord&)> l) {
    listeners_.push_back(std::move(l));
  }

  // Detaches the most recently added listener. Lets a caller that
  // borrows a shared recorder (one episode builder per connection on a
  // reused per-shard ring) subscribe for one connection's lifetime and
  // leave earlier subscribers untouched — clear() deliberately keeps
  // listeners, so scoped subscribers must unhook themselves.
  void pop_listener() {
    if (!listeners_.empty()) listeners_.pop_back();
  }

  void clear();

 private:
  struct RingFree {
    void operator()(TraceRecord* p) const { ::operator delete(p); }
  };
  std::unique_ptr<TraceRecord[], RingFree> ring_;
  uint64_t mask_ = 0;
  uint64_t next_ = 0;
  uint64_t counts_[static_cast<std::size_t>(TraceType::kCount)] = {};
  std::vector<std::function<void(const TraceRecord&)>> listeners_;
};

}  // namespace prr::obs
