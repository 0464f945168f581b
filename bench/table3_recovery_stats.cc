// Table 3: fast-recovery statistics on both populations — fast
// retransmits per fast-recovery event, DSACK rates (spurious
// retransmission evidence), and lost (fast) retransmits.
//
// Paper: ~3 fast retransmits per FR event in both DCs (correlated loss);
// DC1: DSACKs/FR 12%, DSACKs/retransmit 3.8%, lost fast retransmits 6%;
// DC2: 2.93 fast retx/FR, DSACKs/FR 4%, lost fast retransmits 9%.
#include <cstdio>

#include "bench_common.h"
#include "workload/video_workload.h"
#include "workload/web_workload.h"

using namespace prr;

namespace {

// Every counter is read from the episode table, which is derived purely
// from trace records; EpisodeSweepTest and
// StoreLive.EpisodesFromStoreReconcile assert it agrees exactly with the
// tcp::Metrics accumulator.
void print_dc(const char* name, const exp::ArmResult& r,
              const char* paper_col[5]) {
  const auto& m = r.episodes.stream();
  const uint64_t fr_events = r.episodes.total();
  auto ratio = [](uint64_t a, uint64_t b) {
    return b == 0 ? std::string("-")
                  : util::Table::fmt(static_cast<double>(a) /
                                         static_cast<double>(b),
                                     2);
  };
  auto ratio_pct = [](uint64_t a, uint64_t b) {
    return b == 0 ? std::string("-")
                  : util::Table::fmt_pct(static_cast<double>(a) /
                                         static_cast<double>(b));
  };
  util::Table t({"metric", "paper", "measured"});
  t.add_row({"Fast retransmits / FR event", paper_col[0],
             ratio(m.fast_retransmits, fr_events)});
  t.add_row({"DSACKs / FR event", paper_col[1],
             ratio_pct(m.dsacks_received, fr_events)});
  t.add_row({"DSACKs / retransmit", paper_col[2],
             ratio_pct(m.dsacks_received, m.retransmits_total)});
  t.add_row({"Lost fast retransmits / FR event", paper_col[3],
             ratio_pct(m.lost_fast_retransmits, fr_events)});
  t.add_row({"Lost retransmits / retransmit", paper_col[4],
             ratio_pct(m.lost_retransmits_detected, m.retransmits_total)});
  std::printf("---- %s ----\n", name);
  std::printf("FR events: %llu, undo events: %llu\n",
              (unsigned long long)fr_events,
              (unsigned long long)m.undo_events);
  std::printf("%s\n", t.to_string().c_str());
}

}  // namespace

int table3_recovery_stats() {
  bench::print_header(
      "Table 3: Fast-recovery statistics (per FR event / per retransmit)",
      "DC1: 3.15 fast retx per FR, DSACKs/FR 12%, DSACKs/retx 3.8%, lost "
      "fast retx 6%, lost retx/retx 1.9%. DC2: 2.93, 4%, 1.4%, 9%, 3.1%.");

  exp::RunOptions web_opts;
  web_opts.connections = 8000;
  web_opts.seed = 2;
  web_opts.threads = 0;  // parallel sweep: byte-identical to serial
  web_opts.collect_episodes = true;
  exp::ArmResult dc1 =
      exp::run_arm(workload::WebWorkload(), exp::ArmConfig::linux_arm(),
                   web_opts);
  const char* dc1_paper[5] = {"3.15", "12%", "3.8%", "6%", "1.9%"};
  print_dc("DC1 (Web population)", dc1, dc1_paper);

  exp::RunOptions video_opts;
  video_opts.connections = 400;
  video_opts.seed = 3;
  video_opts.threads = 0;  // parallel sweep: byte-identical to serial
  video_opts.collect_episodes = true;
  exp::ArmResult dc2 = exp::run_arm(workload::VideoWorkload(),
                                    exp::ArmConfig::linux_arm(), video_opts);
  const char* dc2_paper[5] = {"2.93", "4%", "1.4%", "9%", "3.1%"};
  print_dc("DC2 (video population)", dc2, dc2_paper);
  return 0;
}
