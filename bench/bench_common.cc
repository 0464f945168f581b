#include "bench_common.h"

#include <cstdio>

namespace prr::bench {

std::vector<exp::ArmConfig> three_way_arms() {
  return {exp::ArmConfig::linux_arm(), exp::ArmConfig::rfc3517_arm(),
          exp::ArmConfig::prr_arm()};
}

ArmCounters arm_counters(const exp::ArmResult& r) {
  return {r.metrics.data_segments_sent,
          r.metrics.retransmits_total,
          r.metrics.timeouts_total,
          r.total_workload_bytes,
          r.recovery_log.count(),
          r.latency.count(),
          static_cast<uint64_t>(r.total_network_transmit_time.ns())};
}

uint64_t aggregate_digest(const std::vector<ArmCounters>& arms) {
  uint64_t h = 1469598103934665603ull;
  for (const ArmCounters& a : arms) {
    for (const uint64_t v : a) {
      h ^= v;
      h *= 1099511628211ull;
    }
  }
  return h;
}

uint64_t aggregate_digest(const std::vector<exp::ArmResult>& results) {
  std::vector<ArmCounters> arms;
  arms.reserve(results.size());
  for (const exp::ArmResult& r : results) arms.push_back(arm_counters(r));
  return aggregate_digest(arms);
}

std::vector<std::string> quantile_row(const std::string& label,
                                      const util::Samples& s,
                                      const std::vector<double>& quantiles,
                                      int precision, bool with_mean) {
  std::vector<std::string> row{label};
  for (double q : quantiles) {
    row.push_back(util::Table::fmt(s.quantile(q / 100.0), precision));
  }
  if (with_mean) row.push_back(util::Table::fmt(s.mean(), precision));
  return row;
}

void print_header(const std::string& experiment,
                  const std::string& paper_summary) {
  std::printf("==============================================================\n");
  std::printf("%s\n", experiment.c_str());
  std::printf("Paper reports: %s\n", paper_summary.c_str());
  std::printf("==============================================================\n\n");
}

}  // namespace prr::bench
