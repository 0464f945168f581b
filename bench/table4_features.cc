// Table 4: loss-recovery related features and defaults. The paper lists
// the Linux feature set its baseline ships with; this prints the
// corresponding feature inventory of this implementation so the mapping
// is auditable.
#include <cstdio>

#include "bench_common.h"
#include "tcp/sender.h"

using namespace prr;

int table4_features() {
  bench::print_header(
      "Table 4: loss-recovery features and defaults",
      "Linux 2.6 defaults: IW10, CUBIC, SACK/D-SACK/FACK on, rate "
      "halving, limited transmit, dynamic dupthresh, min RTO 200 ms, "
      "F-RTO, cwnd undo (Eifel)");

  tcp::SenderConfig def;
  util::Table t({"feature", "RFC", "this implementation"});
  t.add_row({"Initial cwnd", "3390/6928",
             std::to_string(def.initial_cwnd_segments) + " segments"});
  t.add_row({"Congestion control", "5681",
             "CUBIC default (NewReno, GAIMD pluggable)"});
  t.add_row({"SACK", "2018", "always on (receiver option)"});
  t.add_row({"D-SACK", "3708/2883", "on (undo via DSACK)"});
  t.add_row({"Fast recovery", "3517/6937",
             "pluggable: PRR (default) / Linux rate halving / RFC 3517"});
  t.add_row({"FACK loss marking", "-", def.use_fack ? "on" : "off"});
  t.add_row({"Limited transmit", "3042", "on"});
  t.add_row({"Dynamic dupthresh", "-", "on (reordering raises it)"});
  t.add_row({"Lost-retransmit detection", "-", "on"});
  const tcp::RtoEstimator::Config rto;
  t.add_row({"RTO", "6298",
             "min " + std::to_string(rto.min_rto.ms()) + " ms, max " +
                 std::to_string(rto.max_rto.ms() / 1000) + " s"});
  t.add_row({"F-RTO", "5682", "on (spurious-RTO undo)"});
  t.add_row({"Timestamps / Eifel detection", "7323/3522",
             "per-connection (12% of clients in the Web population)"});
  t.add_row({"Early retransmit", "5827",
             "off by default; naive / +reorder / +delay modes"});
  t.add_row({"Cwnd undo (Eifel response)", "3522", "on"});
  std::printf("%s\n", t.to_string().c_str());
  return 0;
}
