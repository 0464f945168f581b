#include "obs/flight_recorder.h"

#include <algorithm>
#include <cstring>

namespace prr::obs {

namespace {
std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}
}  // namespace

FlightRecorder::FlightRecorder(std::size_t capacity_records) {
  const std::size_t n =
      round_up_pow2(std::max<std::size_t>(capacity_records, 2));
  // Raw storage, not a value-initialized vector: zero-filling would make
  // the whole ring resident up front. TraceRecord is an implicit-lifetime
  // aggregate, so the allocation itself provides the records, and every
  // slot is written before it is read.
  ring_.reset(
      static_cast<TraceRecord*>(::operator new(n * sizeof(TraceRecord))));
  mask_ = n - 1;
}

std::vector<TraceRecord> FlightRecorder::tail(std::size_t max_records) const {
  const std::size_t n = std::min(max_records, size());
  std::vector<TraceRecord> out;
  out.reserve(n);
  const std::size_t first = size() - n;
  for (std::size_t i = first; i < size(); ++i) out.push_back((*this)[i]);
  return out;
}

void FlightRecorder::clear() {
  next_ = 0;
  std::memset(counts_, 0, sizeof(counts_));
}

}  // namespace prr::obs
