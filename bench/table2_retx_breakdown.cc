// Table 2: breakdown of TCP retransmission types in the Web data center
// (DC1) and the video data center (DC2), as percentages of total
// retransmissions.
//
// Paper: DC1 24% fast / 43% timeout / 17% slow-start / 15% failed, with
// most timeouts from the Open state; DC2 54% fast / 17% timeout / 29%
// slow-start / 0% failed, with more timeouts in non-Open states.
#include <cstdio>

#include "bench_common.h"
#include "workload/video_workload.h"
#include "workload/web_workload.h"

using namespace prr;

namespace {

void print_dc(const char* name, const exp::ArmResult& r,
              const char* paper_col[8]) {
  const auto& m = r.metrics;
  const double total = static_cast<double>(m.retransmits_total);
  auto pct = [&](uint64_t v) {
    return total == 0 ? std::string("-")
                      : util::Table::fmt_pct(static_cast<double>(v) / total);
  };
  const double rto_total = static_cast<double>(m.timeouts_total);
  auto pct_rto = [&](uint64_t v) {
    return rto_total == 0
               ? std::string("-")
               : util::Table::fmt_pct(static_cast<double>(v) / total);
  };

  util::Table t({"retransmission type", "paper", "measured"});
  t.add_row({"Fast retransmits", paper_col[0], pct(m.fast_retransmits)});
  t.add_row({"Timeout retransmits", paper_col[1],
             pct(m.timeout_retransmits)});
  t.add_row({"  Timeout in Open", paper_col[2],
             pct_rto(m.timeouts_in_open)});
  t.add_row({"  Timeout in Disorder", paper_col[3],
             pct_rto(m.timeouts_in_disorder)});
  t.add_row({"  Timeout in Recovery", paper_col[4],
             pct_rto(m.timeouts_in_recovery)});
  t.add_row({"  Timeout exp. backoff", paper_col[5],
             pct_rto(m.timeouts_exp_backoff)});
  t.add_row({"Slow start retransmits", paper_col[6],
             pct(m.slow_start_retransmits)});
  t.add_row({"Failed retransmits", paper_col[7],
             pct(m.failed_retransmits)});
  std::printf("---- %s ----\n", name);
  std::printf("total retransmissions: %llu  (rate %s)\n",
              (unsigned long long)m.retransmits_total,
              util::Table::fmt_pct(r.retransmission_rate()).c_str());
  std::printf("%s\n", t.to_string().c_str());
}

}  // namespace

int table2_retx_breakdown() {
  bench::print_header(
      "Table 2: Breakdown of retransmission types, DC1 (Web) and DC2 "
      "(YouTube India)",
      "DC1: 24% fast, 43% timeout (mostly in Open), 17% slow start, 15% "
      "failed. DC2: 54% fast, 17% timeout, 29% slow start, 0% failed.");

  exp::RunOptions web_opts;
  web_opts.connections = 8000;
  web_opts.seed = 2;
  web_opts.threads = 0;  // parallel sweep: byte-identical to serial
  exp::ArmResult dc1 =
      exp::run_arm(workload::WebWorkload(), exp::ArmConfig::linux_arm(),
                   web_opts);
  const char* dc1_paper[8] = {"24%", "43%", "30%", "2%",
                              "1%",  "10%", "17%", "15%"};
  print_dc("DC1 (Web population)", dc1, dc1_paper);

  exp::RunOptions video_opts;
  video_opts.connections = 400;
  video_opts.seed = 3;
  video_opts.threads = 0;  // parallel sweep: byte-identical to serial
  video_opts.per_connection_limit = sim::Time::seconds(600);
  exp::ArmConfig video_arm = exp::ArmConfig::linux_arm();
  video_arm.max_rto_backoffs = 15;  // DC2 servers had a higher cap
  exp::ArmResult dc2 =
      exp::run_arm(workload::VideoWorkload(), video_arm, video_opts);
  const char* dc2_paper[8] = {"54%", "17%", "8%", "3%",
                              "2%",  "4%",  "29%", "0%"};
  print_dc("DC2 (video population)", dc2, dc2_paper);
  return 0;
}
