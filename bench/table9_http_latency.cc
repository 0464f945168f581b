// Table 9: TCP latency (ms) for two representative Web services, for
// responses with at least one retransmission, 3-way.
//
// Paper: compared to Linux recovery, PRR and RFC 3517 reduce the latency
// of lossy responses by 3-10% across quantiles (PRR -3.5% / -9.8% mean
// on the two services), and overall latency by 3-5%.
#include <cstdio>

#include "bench_common.h"
#include "workload/web_workload.h"

using namespace prr;

namespace {

void run_service(const char* name, const workload::WebWorkloadParams& p,
                 uint64_t seed) {
  workload::WebWorkload pop(p);
  exp::RunOptions opts;
  opts.connections = 12000;
  opts.seed = seed;
  opts.threads = 0;  // parallel sweep: byte-identical to serial
  auto results = exp::run_arms(pop, bench::three_way_arms(), opts);

  const std::vector<double> qs = {25, 50, 90, 99};
  util::Samples base = results[0].latency.latency_ms(
      stats::LatencyTracker::Filter::kWithRetransmit);

  util::Table t({"quantile", "Linux [ms]", "RFC 3517", "PRR"});
  auto delta_str = [](double v, double b) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%+.0f [%+.1f%%]", v - b,
                  b > 0 ? (v - b) / b * 100 : 0.0);
    return std::string(buf);
  };
  for (double q : qs) {
    util::Samples rfc = results[1].latency.latency_ms(
        stats::LatencyTracker::Filter::kWithRetransmit);
    util::Samples prr = results[2].latency.latency_ms(
        stats::LatencyTracker::Filter::kWithRetransmit);
    const double b = base.quantile(q / 100.0);
    t.add_row({util::Table::fmt(q, 0), util::Table::fmt(b, 0),
               delta_str(rfc.quantile(q / 100.0), b),
               delta_str(prr.quantile(q / 100.0), b)});
  }
  {
    util::Samples rfc = results[1].latency.latency_ms(
        stats::LatencyTracker::Filter::kWithRetransmit);
    util::Samples prr = results[2].latency.latency_ms(
        stats::LatencyTracker::Filter::kWithRetransmit);
    t.add_row({"mean", util::Table::fmt(base.mean(), 0),
               delta_str(rfc.mean(), base.mean()),
               delta_str(prr.mean(), base.mean())});
  }
  std::printf("---- %s (responses with >=1 retransmission) ----\n%s\n",
              name, t.to_string().c_str());

  // Overall latency (paper: 3-5% reduction including loss-free).
  util::Samples all_base = results[0].latency.latency_ms();
  util::Samples all_prr = results[2].latency.latency_ms();
  std::printf("overall mean latency: Linux %.0f ms, PRR %.0f ms (%+.1f%%)\n\n",
              all_base.mean(), all_prr.mean(),
              (all_prr.mean() - all_base.mean()) / all_base.mean() * 100);
}

}  // namespace

int table9_http_latency() {
  bench::print_header(
      "Table 9: TCP latency for two Web services (lossy responses)",
      "PRR and RFC 3517 cut lossy-response latency 3-10% vs Linux; "
      "overall latency 3-5%");

  // Search-like: small, single-burst responses, moderate RTTs.
  workload::WebWorkloadParams search;
  search.mean_requests_per_conn = 2.0;
  search.mean_response_bytes = 11000;
  search.tiny_response_fraction = 0.2;
  run_service("Google-Search-like service", search, 11);

  // Page-ads-like: slightly larger responses on worse networks.
  workload::WebWorkloadParams ads;
  ads.mean_requests_per_conn = 1.5;
  ads.mean_response_bytes = 14000;
  ads.tiny_response_fraction = 0.15;
  ads.clean_path_fraction = 0.55;
  ads.mean_rtt_ms = 160;
  run_service("Page-Ads-like service", ads, 12);
  return 0;
}
