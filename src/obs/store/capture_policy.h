// Trigger-based capture for the trace store (DESIGN.md §14). The paper's
// tables come from mining per-connection traces of billions of flows —
// persisting every record of every connection at that scale is neither
// affordable nor useful. A CapturePolicy is a small predicate, evaluated
// once at connection teardown, that decides whether the connection's
// trace ring is persisted and why:
//
//   spec     := clause (',' clause)*
//   clause   := "all"                   keep every connection, full flag
//             | "none"                  keep nothing (header-only store)
//             | "sample=N"              keep 1-in-N connections (by a
//                                       deterministic hash of the conn
//                                       id), flagged kBlockSampled
//             | "full=" trigger ('|' trigger)*
//             | "recovery_ms>=X"        full capture when the connection
//                                       spent ≥ X ms in loss recovery
//             | "retx>=N"               full capture when it retransmitted
//                                       ≥ N segments
//   trigger  := "timeout"               any RTO fired
//             | "rto_interrupt"         an RTO fired DURING fast recovery
//             | "undo"                  a DSACK/Eifel or spurious-RTO undo
//             | "invariant"             the invariant checker fired
//             | "abort"                 max RTO backoffs exceeded
//
// The ISSUE's headline policy "full on timeout + 1-in-64 sample" is
// spelled `sample=64,full=timeout`. Full-fidelity triggers win over
// sampling: an interesting connection is kept whole (kBlockFull) even
// when the sample draw would also have kept it.
//
// Everything here is a pure function of (spec, per-connection stats), and
// the stats themselves derive from (seed, id, arm) — so capture decisions,
// and therefore store files, are byte-identical at any thread count.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace prr::obs {

// Teardown-time inputs to the predicate. All deltas are this
// connection's own (not shard accumulators).
struct CaptureStats {
  uint64_t conn = 0;
  uint64_t timeouts = 0;       // RTO firings
  uint64_t undo_events = 0;
  uint64_t retransmits = 0;
  uint64_t invariant_violations = 0;
  bool rto_interrupted_recovery = false;  // an RTO fired in Recovery
  bool aborted = false;
  double recovery_ms = 0;  // total simulated time in loss recovery
};

struct CaptureDecision {
  bool keep = false;
  bool full = false;  // kBlockFull vs kBlockSampled
};

class CapturePolicy {
 public:
  // Default-constructed = "none": keeps nothing. The harness only
  // evaluates a policy when a store path is configured.
  CapturePolicy() = default;

  // Parses `spec` (grammar above). On failure returns false and leaves
  // a human-readable reason in *err; *out is untouched.
  static bool parse(std::string_view spec, CapturePolicy* out,
                    std::string* err);

  CaptureDecision evaluate(const CaptureStats& s) const;

  // False for "none": lets the harness skip stats collection entirely.
  bool keeps_anything() const;

  // Canonical spec string (as parsed), recorded into the store header.
  const std::string& spec() const { return spec_; }

 private:
  std::string spec_ = "none";
  bool keep_all_ = false;
  uint64_t sample_n_ = 0;  // 0 = no sampling clause
  bool full_timeout_ = false;
  bool full_rto_interrupt_ = false;
  bool full_undo_ = false;
  bool full_invariant_ = false;
  bool full_abort_ = false;
  // Thresholds; ~0 / +inf sentinels mean "clause absent".
  uint64_t retx_threshold_ = UINT64_MAX;
  double recovery_ms_threshold_ = -1;  // <0 = absent
};

// Deterministic 1-in-N sample membership (splitmix64 finalizer over the
// conn id). Exposed so tests and offline tools can predict the draw.
bool capture_sampled(uint64_t conn, uint64_t n);

}  // namespace prr::obs
