#include "util/checked_write.h"

#include <cstdio>

namespace prr::util {

bool checked_write_file(const std::string& path, std::string_view body) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  // Collapse every failure mode (short write, sticky error flag, failed
  // flush-on-close) into one boolean so no caller can forget one.
  const bool wrote =
      std::fwrite(body.data(), 1, body.size(), f) == body.size();
  const bool clean = std::ferror(f) == 0;
  const bool closed = std::fclose(f) == 0;
  return wrote && clean && closed;
}

}  // namespace prr::util
