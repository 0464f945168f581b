#include "torture/shrink.h"

#include <string>
#include <utility>
#include <vector>

#include "tcp/invariants.h"

namespace prr::torture {

namespace {

sim::Time halve(sim::Time t) { return sim::Time::nanoseconds(t.ns() / 2); }

// All single-step reductions applicable to `c`, cheapest-win first:
// whole-feature removals lead, parameter halvings follow. Generators
// only propose candidates that actually differ from `c`.
std::vector<ReproCase> propose(const ReproCase& c) {
  std::vector<ReproCase> out;
  auto add = [&out, &c](auto mutate) {
    ReproCase next = c;
    mutate(next);
    out.push_back(std::move(next));
  };
  const workload::ConnectionSample& s = c.sample;
  const net::MisbehaviorConfig& m = s.misbehavior;

  // --- whole-feature removals ---
  if (!s.faults.empty()) {
    add([](ReproCase& n) { n.sample.faults = net::FaultSchedule(); });
  }
  for (std::size_t i = 0; i < s.faults.size(); ++i) {
    net::FaultSchedule kept;
    for (std::size_t j = 0; j < s.faults.size(); ++j) {
      if (j != i) kept.add(s.faults.events()[j]);
    }
    add([&kept](ReproCase& n) { n.sample.faults = std::move(kept); });
  }
  if (s.renege_at.ns() > 0) {
    add([](ReproCase& n) { n.sample.renege_at = sim::Time::zero(); });
  }
  if (m.lie_sack_probability > 0) {
    add([](ReproCase& n) { n.sample.misbehavior.lie_sack_probability = 0; });
  }
  if (m.dup_sack_probability > 0) {
    add([](ReproCase& n) { n.sample.misbehavior.dup_sack_probability = 0; });
  }
  if (!m.suppress_duration.is_zero()) {
    add([](ReproCase& n) {
      n.sample.misbehavior.suppress_duration = sim::Time::zero();
    });
  }
  if (m.divide_factor > 1) {
    add([](ReproCase& n) { n.sample.misbehavior.divide_factor = 1; });
  }
  if (m.dup_ack_probability > 0) {
    add([](ReproCase& n) { n.sample.misbehavior.dup_ack_probability = 0; });
  }
  if (m.reorder_probability > 0) {
    add([](ReproCase& n) { n.sample.misbehavior.reorder_probability = 0; });
  }
  if (!m.shrink_duration.is_zero()) {
    add([](ReproCase& n) {
      n.sample.misbehavior.shrink_duration = sim::Time::zero();
    });
  }
  if (m.corrupt_probability > 0) {
    add([](ReproCase& n) { n.sample.misbehavior.corrupt_probability = 0; });
  }
  if (s.loss.p_good_to_bad > 0 || s.loss.loss_in_good > 0) {
    add([](ReproCase& n) {
      n.sample.loss.p_good_to_bad = 0;
      n.sample.loss.loss_in_good = 0;
    });
  }
  if (s.outages) {
    add([](ReproCase& n) { n.sample.outages = false; });
  }
  if (s.ack_loss_prob > 0) {
    add([](ReproCase& n) { n.sample.ack_loss_prob = 0; });
  }
  if (s.ack_stretch > 1) {
    add([](ReproCase& n) { n.sample.ack_stretch = 1; });
  }
  if (s.reorder_prob > 0) {
    add([](ReproCase& n) { n.sample.reorder_prob = 0; });
  }
  if (s.client_abandons) {
    add([](ReproCase& n) { n.sample.client_abandons = false; });
  }

  // --- workload reductions ---
  if (s.responses.size() > 1) {
    add([](ReproCase& n) { n.sample.responses.pop_back(); });
    add([](ReproCase& n) { n.sample.responses.resize(1); });
  }
  for (std::size_t i = 0; i < s.responses.size(); ++i) {
    if (s.responses[i].bytes >= 2 * 1430) {
      add([i](ReproCase& n) {
        n.sample.responses[i].bytes /= 2;
        // Throttling parameters scale with the body they pace.
        n.sample.responses[i].burst_bytes /= 2;
      });
    }
    if (!s.responses[i].gap_before.is_zero()) {
      add([i](ReproCase& n) {
        n.sample.responses[i].gap_before = sim::Time::zero();
      });
    }
  }

  // --- parameter halvings (interval narrowing / onset bisection) ---
  const sim::Time kMinInterval = sim::Time::milliseconds(50);
  if (s.renege_at > kMinInterval) {
    add([](ReproCase& n) { n.sample.renege_at = halve(n.sample.renege_at); });
  }
  if (m.suppress_at > kMinInterval) {
    add([](ReproCase& n) {
      n.sample.misbehavior.suppress_at =
          halve(n.sample.misbehavior.suppress_at);
    });
  }
  if (m.suppress_duration > kMinInterval) {
    add([](ReproCase& n) {
      n.sample.misbehavior.suppress_duration =
          halve(n.sample.misbehavior.suppress_duration);
    });
  }
  if (m.shrink_at > kMinInterval) {
    add([](ReproCase& n) {
      n.sample.misbehavior.shrink_at = halve(n.sample.misbehavior.shrink_at);
    });
  }
  if (m.shrink_duration > kMinInterval) {
    add([](ReproCase& n) {
      n.sample.misbehavior.shrink_duration =
          halve(n.sample.misbehavior.shrink_duration);
    });
  }
  for (std::size_t i = 0; i < s.faults.size(); ++i) {
    const net::FaultEvent& e = s.faults.events()[i];
    if (e.duration > kMinInterval) {
      net::FaultSchedule sched;
      for (std::size_t j = 0; j < s.faults.size(); ++j) {
        net::FaultEvent ev = s.faults.events()[j];
        if (j == i) ev.duration = halve(ev.duration);
        sched.add(ev);
      }
      add([&sched](ReproCase& n) { n.sample.faults = std::move(sched); });
    }
  }
  return out;
}

}  // namespace

ShrinkResult shrink(const ReproCase& start, const ShrinkOptions& opts) {
  ShrinkResult result;
  result.minimized = start;

  // Establish (or verify) the failure signature on the unmodified case.
  {
    exp::ReplayResult base = run_repro(result.minimized);
    ++result.replays;
    if (result.minimized.expect.empty()) {
      for (const auto& v : base.violations) {
        const std::string kind = tcp::to_string(v.kind);
        bool seen = false;
        for (const auto& k : result.minimized.expect) {
          if (k == kind) seen = true;
        }
        if (!seen) result.minimized.expect.push_back(kind);
      }
      if (!base.exception.empty()) {
        result.minimized.expect.push_back("exception");
      }
    }
    result.input_reproduced =
        repro_reproduced(result.minimized, base) &&
        !result.minimized.expect.empty();
    if (!result.input_reproduced) return result;
  }

  // Greedy fixpoint: keep sweeping the proposal list until a full pass
  // accepts nothing (or the replay budget runs out).
  bool progressed = true;
  while (progressed && result.replays < opts.max_replays) {
    progressed = false;
    for (ReproCase& cand : propose(result.minimized)) {
      if (result.replays >= opts.max_replays) break;
      exp::ReplayResult r = run_repro(cand);
      ++result.replays;
      if (!repro_reproduced(result.minimized, r)) continue;
      cand.expect = result.minimized.expect;
      result.minimized = std::move(cand);
      ++result.accepted;
      progressed = true;
      break;  // re-propose against the smaller case
    }
  }
  return result;
}

}  // namespace prr::torture
