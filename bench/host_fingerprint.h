// Host fingerprint for the benchmark: perfbench stamps the host (core
// count, CPU model) at the top of every run and sizes its parallel sweep
// from the core count, so a number is always read against the machine
// that measured it. The fingerprint is (hostname, CPU model string,
// hardware concurrency).
#pragma once

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <thread>

// Not used here: perfbench quotes the CPU model with obs::json_quote and
// gets it through this header.
#include "obs/json.h"

namespace prr::bench {

struct HostFingerprint {
  std::string host = "unknown";
  std::string cpu_model = "unknown";
  unsigned hardware_concurrency = 0;
};

// First "model name" line of /proc/cpuinfo; "unknown" when unreadable
// (non-Linux, restricted container).
inline std::string cpu_model_name() {
  std::FILE* f = std::fopen("/proc/cpuinfo", "rb");
  if (f == nullptr) return "unknown";
  char line[512];
  std::string model = "unknown";
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "model name", 10) != 0) continue;
    const char* colon = std::strchr(line, ':');
    if (colon == nullptr) break;
    ++colon;
    while (*colon == ' ' || *colon == '\t') ++colon;
    model = colon;
    while (!model.empty() &&
           (model.back() == '\n' || model.back() == '\r')) {
      model.pop_back();
    }
    break;
  }
  std::fclose(f);
  return model;
}

inline HostFingerprint host_fingerprint() {
  HostFingerprint fp;
  char host[256] = "unknown";
  if (gethostname(host, sizeof(host) - 1) == 0) fp.host = host;
  fp.cpu_model = cpu_model_name();
  fp.hardware_concurrency = std::thread::hardware_concurrency();
  return fp;
}

}  // namespace prr::bench
