#include "obs/self_profile.h"

#include "sim/simulator.h"
#include "tcp/sender.h"

namespace prr::obs {

void SelfProfiler::attach(sim::Simulator& sim) {
  sim.set_slice_histogram(&slice_ns_);
}

void SelfProfiler::attach(tcp::Sender& sender) {
  sender.set_ack_cost_histogram(&ack_ns_);
}

void SelfProfiler::export_into(MetricsRegistry& registry,
                               const std::string& prefix) const {
  registry.histogram(prefix + ".slice_ns")->merge(slice_ns_);
  registry.histogram(prefix + ".ack_ns")->merge(ack_ns_);
}

}  // namespace prr::obs
