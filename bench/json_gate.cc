// JSON-validity gate for artifacts (DESIGN.md §13 satellite): every file
// named on the command line must parse as well-formed JSON (.jsonl:
// every line parses) and end in a newline.
//
// This is the cheap end of the artifact-integrity ladder: a truncated
// file from an unflushed stream or a full disk looks exactly like a
// valid one to `ls`, then breaks a consumer later where the failure is
// hard to attribute. The nightly service soak runs it over its JSONL
// streams and Perfetto timeline.
//
// Usage: json_gate FILE...
// Exit: 0 = every file parses, 1 = at least one is torn/invalid,
// 2 = usage error (no file named, or a named file is missing).
#include <cstdio>
#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json.h"

using namespace prr;

namespace {

std::string slurp(const std::string& path, bool* ok) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    *ok = false;
    return {};
  }
  std::string out;
  char buf[1 << 16];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, n);
  *ok = std::ferror(f) == 0;
  std::fclose(f);
  return out;
}

bool ends_with(const std::string& s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

// One file's verdict; prints its own diagnosis.
bool check_file(const std::string& path) {
  bool read_ok = false;
  const std::string body = slurp(path, &read_ok);
  if (!read_ok) {
    std::printf("FAIL %-24s unreadable\n", path.c_str());
    return false;
  }
  if (body.empty()) {
    std::printf("FAIL %-24s empty (torn write?)\n", path.c_str());
    return false;
  }
  if (body.back() != '\n') {
    // Every writer in this repo terminates its artifact with \n; a
    // missing one is the signature of a truncated buffered stream.
    std::printf("FAIL %-24s missing trailing newline (truncated?)\n",
                path.c_str());
    return false;
  }
  if (ends_with(path, ".jsonl")) {
    std::size_t line_no = 0;
    std::size_t start = 0;
    while (start < body.size()) {
      std::size_t end = body.find('\n', start);
      if (end == std::string::npos) end = body.size();
      ++line_no;
      const std::string_view line(body.data() + start, end - start);
      if (!line.empty() && !obs::json_valid(line)) {
        std::printf("FAIL %-24s line %zu is not valid JSON\n",
                    path.c_str(), line_no);
        return false;
      }
      start = end + 1;
    }
    std::printf("ok   %-24s %zu line(s)\n", path.c_str(), line_no);
    return true;
  }
  if (!obs::json_valid(body)) {
    std::printf("FAIL %-24s not valid JSON\n", path.c_str());
    return false;
  }
  std::printf("ok   %-24s %zu B\n", path.c_str(), body.size());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: json_gate FILE...\n");
    return 2;
  }
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    if (!std::filesystem::exists(argv[i])) {
      std::fprintf(stderr, "json_gate: %s does not exist\n", argv[i]);
      return 2;
    }
    files.emplace_back(argv[i]);
  }

  int failures = 0;
  for (const std::string& f : files) {
    if (!check_file(f)) ++failures;
  }
  std::printf("json_gate: %zu file(s), %d failure(s)%s\n", files.size(),
              failures, failures == 0 ? " -- PASS" : " -- FAIL");
  return failures == 0 ? 0 : 1;
}
