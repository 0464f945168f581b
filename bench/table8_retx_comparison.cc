// Table 8: retransmission statistics and timeouts of PRR and RFC 3517
// relative to the Linux baseline (3-way, common random numbers).
//
// Paper (deltas vs Linux): both PRR and RFC 3517 send a few percent more
// total/fast retransmissions (they keep transmitting where Linux stalls),
// both reduce timeouts-in-recovery (PRR -5.0%, RFC 3517 -2.5%), and both
// lose more retransmissions than Linux with RFC 3517 markedly worse
// (+198%) than PRR (+117%) because of its bursts.
#include <cstdio>

#include "bench_common.h"
#include "workload/web_workload.h"

using namespace prr;

namespace {

std::string delta(uint64_t v, uint64_t base) {
  if (base == 0) return "-";
  const double d = (static_cast<double>(v) - static_cast<double>(base)) /
                   static_cast<double>(base);
  char buf[64];
  std::snprintf(buf, sizeof buf, "%+lld [%+.1f%%]",
                (long long)(v - base), d * 100);
  return buf;
}

}  // namespace

int table8_retx_comparison() {
  bench::print_header(
      "Table 8: retransmission statistics vs the Linux baseline",
      "PRR: total +2.5%, fast +13%, timeouts-in-recovery -5.0%, lost "
      "retx +117%. RFC 3517: +3.7%, +17%, -2.5%, +198%.");

  workload::WebWorkload pop;
  exp::RunOptions opts;
  opts.connections = 12000;
  opts.seed = 7;
  opts.threads = 0;  // parallel sweep: byte-identical to serial
  auto results = exp::run_arms(pop, bench::three_way_arms(), opts);
  const auto& linux_arm = results[0].metrics;
  const auto& rfc = results[1].metrics;
  const auto& prr = results[2].metrics;

  util::Table t({"retransmission type", "Linux baseline",
                 "RFC 3517 diff", "PRR diff", "paper RFC diff",
                 "paper PRR diff"});
  t.add_row({"Total retransmissions",
             std::to_string(linux_arm.retransmits_total),
             delta(rfc.retransmits_total, linux_arm.retransmits_total),
             delta(prr.retransmits_total, linux_arm.retransmits_total),
             "+3.7%", "+2.5%"});
  t.add_row({"Fast retransmissions",
             std::to_string(linux_arm.fast_retransmits),
             delta(rfc.fast_retransmits, linux_arm.fast_retransmits),
             delta(prr.fast_retransmits, linux_arm.fast_retransmits),
             "+17%", "+13%"});
  t.add_row({"Timeouts in recovery",
             std::to_string(linux_arm.timeouts_in_recovery),
             delta(rfc.timeouts_in_recovery,
                   linux_arm.timeouts_in_recovery),
             delta(prr.timeouts_in_recovery,
                   linux_arm.timeouts_in_recovery),
             "-2.5%", "-5.0%"});
  t.add_row({"Lost retransmissions",
             std::to_string(linux_arm.lost_retransmits_detected),
             delta(rfc.lost_retransmits_detected,
                   linux_arm.lost_retransmits_detected),
             delta(prr.lost_retransmits_detected,
                   linux_arm.lost_retransmits_detected),
             "+198%", "+117%"});
  std::printf("%s\n", t.to_string().c_str());
  return 0;
}
