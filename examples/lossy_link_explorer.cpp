// Lossy-link explorer: run one of the paper's deterministic-drop
// scenarios with a chosen recovery algorithm and dump the raw
// time-sequence trace as CSV (for plotting) plus summary counters.
//
// Usage: lossy_link_explorer [prr|prr-crb|prr-ub|linux|rfc3517]
//                            [fig2|fig3|fig4] [--csv | --pcap <file>]
// The CSV goes to stdout for plotting; --pcap writes a Wireshark-
// compatible capture of the run; the ASCII view is the default. An
// unknown algorithm, figure or flag, or --pcap without its path, exits 2.
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>

#include "exp/scenarios.h"

using namespace prr;

namespace {

int usage(const char* bad) {
  std::fprintf(stderr,
               "lossy_link_explorer: bad argument '%s'\n"
               "usage: lossy_link_explorer [prr|prr-crb|prr-ub|linux|rfc3517]"
               " [fig2|fig3|fig4] [--csv | --pcap <file>]\n",
               bad);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string algo = "prr";
  std::string fig = "fig2";
  bool csv = false;
  const char* pcap_path = nullptr;
  int positional = 0;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strcmp(a, "--csv") == 0 && pcap_path == nullptr) {
      csv = true;
    } else if (std::strcmp(a, "--pcap") == 0 && !csv && i + 1 < argc) {
      pcap_path = argv[++i];
    } else if (a[0] == '-' || positional == 2) {
      return usage(a);
    } else {
      (positional++ == 0 ? algo : fig) = a;
    }
  }

  tcp::RecoveryKind kind = tcp::RecoveryKind::kPrr;
  core::ReductionBound bound = core::ReductionBound::kSlowStart;
  if (algo == "linux") kind = tcp::RecoveryKind::kLinuxRateHalving;
  else if (algo == "rfc3517") kind = tcp::RecoveryKind::kRfc3517;
  else if (algo == "prr-crb") bound = core::ReductionBound::kConservative;
  else if (algo == "prr-ub") bound = core::ReductionBound::kUnlimited;
  else if (algo != "prr") return usage(algo.c_str());
  if (fig != "fig2" && fig != "fig3" && fig != "fig4") {
    return usage(fig.c_str());
  }

  exp::FigureScenario scenario =
      fig == "fig3" ? exp::FigureScenario::fig3(kind)
      : fig == "fig4" ? exp::FigureScenario::fig4(kind)
                      : exp::FigureScenario::fig2(kind);
  scenario.prr_bound = bound;
  if (pcap_path != nullptr) scenario.pcap_path = pcap_path;

  exp::FigureRun run = exp::run_figure_scenario(scenario);
  if (pcap_path != nullptr) {
    std::printf("wrote capture to %s\n", pcap_path);
  }
  if (csv) {
    run.trace.write_csv(std::cout);
    return 0;
  }
  std::printf("%s on %s\n\n%s\n", algo.c_str(), fig.c_str(),
              run.trace.render_ascii().c_str());
  std::printf("segments=%llu retransmits=%llu fast=%llu timeouts=%llu "
              "recoveries=%llu\nall data ACKed at %lld ms\n",
              (unsigned long long)run.metrics.data_segments_sent,
              (unsigned long long)run.metrics.retransmits_total,
              (unsigned long long)run.metrics.fast_retransmits,
              (unsigned long long)run.metrics.timeouts_total,
              (unsigned long long)run.metrics.fast_recovery_events,
              (long long)run.all_acked_at.ms());
  return 0;
}
