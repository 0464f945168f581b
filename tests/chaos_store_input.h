// The chaos input of the trace-store tests: the DC1 web population with
// every fault family at once (ChaosSpec::everything), 2,000 connections
// from seed 20110501, capture=all, invariant checking on, and a ring
// large enough that no connection wraps, so store-derived tables must
// reconcile exactly with the live ones. Plain web traffic at test sizes
// never leaves recovery by undo; this input does. Its PRR store holds
// 192 episodes (154 completed, 35 RTO-interrupted, 3 undone) and 1,781
// RTOs, and the tests assert that each exit kind occurs.
#pragma once

#include "exp/experiment.h"
#include "exp/scenarios.h"
#include "workload/web_workload.h"

namespace prr::chaos_store {

inline const workload::Population& population() {
  static const workload::WebWorkload base;
  static const exp::ChaosPopulation pop(base,
                                        exp::ChaosSpec::everything().profile);
  return pop;
}

inline exp::RunOptions options() {
  exp::RunOptions opts;
  opts.connections = 2000;
  opts.seed = 20110501;
  opts.threads = 1;
  opts.check_invariants = true;
  opts.trace_ring_records = 1u << 16;
  opts.capture = "all";
  return opts;
}

}  // namespace prr::chaos_store
