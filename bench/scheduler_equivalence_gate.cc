// scheduler_equivalence_gate: end-to-end check of the DESIGN.md §12
// claim that the event-dispatch machinery is invisible to results. It
// runs the standard three-arm Web sweep under every combination of
//
//   delivery         per-event | batch (RunOptions::batch_delivery)
//   threads          1 | 4 | 8
//   tracing          off | on
//
// and fails unless all 12 combinations produce bit-identical aggregate
// digests. The unit-level tests (tests/test_batch_delivery.cc) check
// delivery order on synthetic link traces; this gate checks the same
// property end-to-end through real TCP dynamics, where a single swapped
// same-timestamp event would change retransmit counts or transmit-time
// sums and therefore the digest.
//
// The population is fixed (300 connections per arm, seed 42): the
// property is combo-invariance, not scale. Its stdout is deterministic
// and pinned as a golden (ctest -L tables). Run it with
// `reproduce scheduler_equivalence_gate`.
#include <cinttypes>
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "workload/web_workload.h"

using namespace prr;

namespace {

constexpr int kConnections = 300;
constexpr uint64_t kSeed = 42;

}  // namespace

int scheduler_equivalence_gate() {
  workload::WebWorkload pop;
  const std::vector<exp::ArmConfig> arms = bench::three_way_arms();

  struct Combo {
    bool batch;
    int threads;
    bool trace;
  };
  std::vector<Combo> combos;
  for (const bool batch : {false, true}) {
    for (const int threads : {1, 4, 8}) {
      for (const bool trace : {false, true}) {
        combos.push_back(Combo{batch, threads, trace});
      }
    }
  }

  std::printf(
      "scheduler_equivalence_gate: %d conns x %zu arms, seed %" PRIu64
      ", %zu combos\n",
      kConnections, arms.size(), kSeed, combos.size());

  uint64_t reference = 0;
  bool have_reference = false;
  bool ok = true;
  for (const Combo& c : combos) {
    exp::RunOptions opts;
    opts.connections = kConnections;
    opts.seed = kSeed;
    opts.threads = c.threads;
    opts.batch_delivery = c.batch;
    opts.trace = c.trace;
    const uint64_t d =
        bench::aggregate_digest(exp::run_arms(pop, arms, opts));
    std::printf("  %-9s threads=%d trace=%d  digest 0x%016" PRIx64 "%s\n",
                c.batch ? "batch" : "per-event", c.threads,
                c.trace ? 1 : 0, d,
                !have_reference || d == reference ? "" : "  MISMATCH");
    if (!have_reference) {
      reference = d;
      have_reference = true;
    } else if (d != reference) {
      ok = false;
    }
  }

  if (!ok) {
    std::fprintf(stderr,
                 "FAIL: aggregate digests differ across delivery/"
                 "thread/tracing combos — dispatch machinery "
                 "leaked into results\n");
    return 1;
  }
  std::printf("PASS: all %zu combos bit-identical (0x%016" PRIx64 ")\n",
              combos.size(), reference);
  return 0;
}
