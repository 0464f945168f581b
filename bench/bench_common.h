// Shared helpers for the experiments and gates in bench/: the standard
// three recovery arms, the aggregate digest the gates compare,
// quantile-row formatting, and paper-vs-measured table printing.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "exp/experiment.h"
#include "util/quantiles.h"
#include "util/table.h"

namespace prr::bench {

// The paper's standard 3-way comparison (all CUBIC + FACK, §5).
std::vector<exp::ArmConfig> three_way_arms();

// The flat integer aggregates of one arm that every delivery mode,
// thread count and process split must reproduce: data segments,
// retransmits, timeouts, workload bytes, recoveries, responses and
// network transmit time (ns). Each is a plain sum of per-connection
// contributions, so disjoint id ranges add up to the whole run exactly.
// The recovery and response counts stay exact in bounded-stats mode.
using ArmCounters = std::array<uint64_t, 7>;
ArmCounters arm_counters(const exp::ArmResult& r);

// FNV-1a over each arm's counters, in arm order.
uint64_t aggregate_digest(const std::vector<ArmCounters>& arms);
uint64_t aggregate_digest(const std::vector<exp::ArmResult>& results);

// Formats a quantile row over the given sample set.
std::vector<std::string> quantile_row(const std::string& label,
                                      const util::Samples& s,
                                      const std::vector<double>& quantiles,
                                      int precision = 0,
                                      bool with_mean = false);

// Prints a header identifying the experiment and what the paper reports.
void print_header(const std::string& experiment,
                  const std::string& paper_summary);

}  // namespace prr::bench
