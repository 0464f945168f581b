// Strict decimal integer parsers for untrusted text: the `.repro` loader
// and the CLIs' numeric flags. Each accepts the whole string or nothing:
// no trailing bytes (an embedded NUL included), no overflow, and no sign
// on an unsigned value (strtoull would turn "-1" into 2^64-1).
#pragma once

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <type_traits>

namespace prr::util {

inline bool parse_u64(const std::string& s, uint64_t& v) {
  if (s.empty() || s[0] < '0' || s[0] > '9') return false;
  char* end = nullptr;
  errno = 0;
  v = std::strtoull(s.c_str(), &end, 10);
  return errno == 0 && end == s.c_str() + s.size();
}

inline bool parse_i64(const std::string& s, int64_t& v) {
  char* end = nullptr;
  errno = 0;
  v = std::strtoll(s.c_str(), &end, 10);
  return errno == 0 && !s.empty() && end == s.c_str() + s.size();
}

// An integer that must fit type T.
template <typename T>
bool parse_int(const std::string& s, T& v) {
  if constexpr (std::is_signed_v<T>) {
    int64_t i = 0;
    if (!parse_i64(s, i) || i < std::numeric_limits<T>::min() ||
        i > std::numeric_limits<T>::max()) {
      return false;
    }
    v = static_cast<T>(i);
  } else {
    uint64_t u = 0;
    if (!parse_u64(s, u) || u > std::numeric_limits<T>::max()) return false;
    v = static_cast<T>(u);
  }
  return true;
}

// A CLI flag's integer value, which must also lie in [lo, hi]. On a bad
// value prints the flag, the value and the range to stderr, leaves `v`
// unchanged and returns false; the CLIs then exit 2.
template <typename T>
bool parse_flag(const char* flag, const std::string& s, T& v,
                T lo = std::numeric_limits<T>::min(),
                T hi = std::numeric_limits<T>::max()) {
  T x{};
  if (parse_int(s, x) && x >= lo && x <= hi) {
    v = x;
    return true;
  }
  std::fprintf(stderr, "%s: bad value '%s' (want an integer in [%s, %s])\n",
               flag, s.c_str(), std::to_string(lo).c_str(),
               std::to_string(hi).c_str());
  return false;
}

}  // namespace prr::util
