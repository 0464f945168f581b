// Automatic failure minimization: a greedy delta-debugging loop over a
// ReproCase. Each step proposes a structurally smaller candidate —
// a fault event removed, a response dropped or halved, a pathology
// feature disabled, an onset or duration halved, a loss process
// zeroed — replays it through exp::replay, and keeps the
// candidate iff it still exhibits the original failure signature
// (the same invariant kinds; exact times are free to move, since
// shrinking changes timing). Passes repeat to a fixpoint, so removals
// that only become possible after other removals are still found.
//
// The output is the campaign's checked-in artifact: a minimal,
// self-contained repro a human can read top to bottom, whose every
// remaining line is load-bearing (removing any single element was
// tried and broke reproduction).
#pragma once

#include <string>

#include "torture/repro.h"

namespace prr::torture {

struct ShrinkOptions {
  int max_replays = 400;  // hard cap on candidate evaluations
};

struct ShrinkResult {
  ReproCase minimized;
  int replays = 0;   // candidate evaluations performed
  int accepted = 0;  // candidates that kept the failure and were kept
  // The starting case itself failed to reproduce its signature, so no
  // shrinking was attempted (minimized == the input).
  bool input_reproduced = false;
};

// Minimizes `start`. If start.expect is empty, the signature is first
// derived by replaying the unmodified case.
ShrinkResult shrink(const ReproCase& start, const ShrinkOptions& opts = {});

}  // namespace prr::torture
