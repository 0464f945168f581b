// Adapter binding the standalone PRR module (core/prr.h) to the
// simulator's recovery-policy contract (tcp/recovery/recovery.h). All
// three reduction-bound variants (SSRB — the paper's "PRR" — plus CRB and
// UB for the ablation bench) are selected at construction.
#pragma once

#include <cstdint>

#include "core/prr.h"

namespace prr::tcp {

class PrrRecovery {
 public:
  explicit PrrRecovery(
      core::ReductionBound bound = core::ReductionBound::kSlowStart)
      : state_(bound) {}

  void on_enter(uint64_t flight_bytes, uint64_t ssthresh, uint64_t,
                uint32_t mss) {
    state_.enter_recovery(flight_bytes, ssthresh, mss);
  }

  uint64_t on_ack(uint64_t delivered_bytes, uint64_t pipe_bytes) {
    const uint64_t sndcnt = state_.on_ack(delivered_bytes, pipe_bytes);
    return pipe_bytes + sndcnt;  // Algorithm 2: cwnd = pipe + sndcnt
  }

  void on_sent(uint64_t bytes) { state_.on_data_sent(bytes); }

  uint64_t exit_cwnd(uint64_t, uint64_t) {
    return state_.exit_cwnd();  // cwnd = ssthresh at the end of recovery
  }

  const core::PrrState& state() const { return state_; }

 private:
  core::PrrState state_;
};

}  // namespace prr::tcp
