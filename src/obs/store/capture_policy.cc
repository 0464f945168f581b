#include "obs/store/capture_policy.h"

#include <cmath>
#include <cstdlib>
#include <vector>

namespace prr::obs {

namespace {

uint64_t mix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

std::vector<std::string_view> split(std::string_view s, char sep) {
  std::vector<std::string_view> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    std::size_t end = s.find(sep, start);
    if (end == std::string_view::npos) end = s.size();
    out.push_back(s.substr(start, end - start));
    start = end + 1;
    if (end == s.size()) break;
  }
  return out;
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) {
    s.remove_suffix(1);
  }
  return s;
}

// Parses a nonnegative integer; false on empty/garbage/overflow-ish.
bool parse_u64(std::string_view s, uint64_t* out) {
  if (s.empty()) return false;
  uint64_t v = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
    if (v > (UINT64_MAX - 9) / 10) return false;
    v = v * 10 + static_cast<uint64_t>(c - '0');
  }
  *out = v;
  return true;
}

// Parses a finite number; false on empty/garbage/trailing bytes, and on
// nan and inf (a NaN threshold would never fire).
bool parse_double(std::string_view s, double* out) {
  if (s.empty()) return false;
  std::string buf(s);
  char* end = nullptr;
  const double v = std::strtod(buf.c_str(), &end);
  if (end != buf.c_str() + buf.size() || !std::isfinite(v)) return false;
  *out = v;
  return true;
}

}  // namespace

bool capture_sampled(uint64_t conn, uint64_t n) {
  if (n == 0) return false;
  if (n == 1) return true;
  return mix64(conn) % n == 0;
}

bool CapturePolicy::keeps_anything() const {
  return keep_all_ || sample_n_ > 0 || full_timeout_ ||
         full_rto_interrupt_ || full_undo_ || full_invariant_ ||
         full_abort_ || retx_threshold_ != UINT64_MAX ||
         recovery_ms_threshold_ >= 0;
}

bool CapturePolicy::parse(std::string_view spec, CapturePolicy* out,
                          std::string* err) {
  CapturePolicy p;
  p.spec_ = std::string(trim(spec));
  if (trim(spec).empty()) {
    if (err != nullptr) *err = "empty capture spec (use 'all' or 'none')";
    return false;
  }
  for (std::string_view raw : split(spec, ',')) {
    const std::string_view clause = trim(raw);
    if (clause.empty()) continue;
    if (clause == "all") {
      p.keep_all_ = true;
    } else if (clause == "none") {
      // explicit no-op: a header-only store is a valid baseline
    } else if (clause.substr(0, 7) == "sample=") {
      uint64_t n = 0;
      if (!parse_u64(clause.substr(7), &n) || n == 0) {
        if (err != nullptr) {
          *err = "bad sample clause '" + std::string(clause) +
                 "' (want sample=N with N >= 1)";
        }
        return false;
      }
      p.sample_n_ = n;
    } else if (clause.substr(0, 5) == "full=") {
      for (std::string_view t : split(clause.substr(5), '|')) {
        const std::string_view trig = trim(t);
        if (trig == "timeout") {
          p.full_timeout_ = true;
        } else if (trig == "rto_interrupt") {
          p.full_rto_interrupt_ = true;
        } else if (trig == "undo") {
          p.full_undo_ = true;
        } else if (trig == "invariant") {
          p.full_invariant_ = true;
        } else if (trig == "abort") {
          p.full_abort_ = true;
        } else {
          if (err != nullptr) {
            *err = "unknown trigger '" + std::string(trig) +
                   "' (want timeout|rto_interrupt|undo|invariant|abort)";
          }
          return false;
        }
      }
    } else if (clause.substr(0, 13) == "recovery_ms>=") {
      double v = 0;
      if (!parse_double(clause.substr(13), &v) || v < 0) {
        if (err != nullptr) {
          *err = "bad recovery_ms clause '" + std::string(clause) + "'";
        }
        return false;
      }
      p.recovery_ms_threshold_ = v;
    } else if (clause.substr(0, 6) == "retx>=") {
      uint64_t n = 0;
      if (!parse_u64(clause.substr(6), &n)) {
        if (err != nullptr) {
          *err = "bad retx clause '" + std::string(clause) + "'";
        }
        return false;
      }
      p.retx_threshold_ = n;
    } else {
      if (err != nullptr) {
        *err = "unknown capture clause '" + std::string(clause) + "'";
      }
      return false;
    }
  }
  *out = std::move(p);
  return true;
}

CaptureDecision CapturePolicy::evaluate(const CaptureStats& s) const {
  CaptureDecision d;
  const bool triggered =
      keep_all_ || (full_timeout_ && s.timeouts > 0) ||
      (full_rto_interrupt_ && s.rto_interrupted_recovery) ||
      (full_undo_ && s.undo_events > 0) ||
      (full_invariant_ && s.invariant_violations > 0) ||
      (full_abort_ && s.aborted) || s.retransmits >= retx_threshold_ ||
      (recovery_ms_threshold_ >= 0 &&
       s.recovery_ms >= recovery_ms_threshold_);
  if (triggered) {
    d.keep = true;
    d.full = true;
    return d;
  }
  if (capture_sampled(s.conn, sample_n_)) {
    d.keep = true;
    d.full = false;
  }
  return d;
}

}  // namespace prr::obs
