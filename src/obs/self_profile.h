// Simulator self-profiling: wall-clock cost of event-loop slices and of
// per-ACK processing, recorded into log2 histograms and exported into a
// MetricsRegistry. The Simulator and the Sender each hold a plain pointer
// to one of the profiler's histograms and time themselves only while it
// is set, so the unprofiled paths take no clock readings. Wall-clock
// samples are inherently nondeterministic, which is why they live in a
// separate profiler object and are exported only when the caller asks
// (RunOptions::self_profile); the deterministic registry contents are
// never mixed with them implicitly.
#pragma once

#include <cstdint>
#include <string>

#include "obs/metrics_registry.h"

namespace prr::sim {
class Simulator;
}
namespace prr::tcp {
class Sender;
}

namespace prr::obs {

class SelfProfiler {
 public:
  // Points the simulator's slice tap at slice_ns() (duration of each
  // executed event callback, ns).
  void attach(sim::Simulator& sim);
  // Points the sender's per-ACK cost tap at ack_ns() (duration of each
  // on_ack_segment call, ns). May be called for several senders; their
  // samples share one histogram. The profiler must outlive the traffic
  // it times, or the next Simulator/Sender reset.
  void attach(tcp::Sender& sender);

  const LogHistogram& slice_ns() const { return slice_ns_; }
  const LogHistogram& ack_ns() const { return ack_ns_; }

  // Copies the histograms into `registry` as "<prefix>.slice_ns" and
  // "<prefix>.ack_ns".
  void export_into(MetricsRegistry& registry,
                   const std::string& prefix = "profile") const;

 private:
  LogHistogram slice_ns_;
  LogHistogram ack_ns_;
};

}  // namespace prr::obs
