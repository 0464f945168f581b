// ACK-path impairments: independent ACK loss and stretch-ACK (LRO/GRO)
// coalescing. Because each ACK snapshots complete receiver state
// (cumulative ACK + SACK blocks), dropping all but the last ACK of a
// coalescing window is an exact model of receive offload: the surviving
// ACK acknowledges everything the dropped ones did.
//
// Adversarial endpoint models (net/misbehavior.h) plug in ahead of the
// ordinary impairments: misbehavior first (the endpoint emits bad ACKs),
// then loss and stretch (the path damages whatever was emitted).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>

#include "net/misbehavior.h"
#include "net/segment.h"
#include "sim/rng.h"
#include "sim/simulator.h"

namespace prr::net {

class AckMangler {
 public:
  using ForwardFn = std::function<void(Segment&&)>;

  struct Config {
    double ack_loss_probability = 0.0;
    // Stretch factor k: deliver one ACK per k generated (k=1 disables).
    uint32_t stretch_factor = 1;
    // A held ACK is flushed after this long even if the window isn't full,
    // like an LRO flush timer.
    sim::Time stretch_flush_timeout = sim::Time::microseconds(500);
    // Adversarial endpoint pathologies (all off by default).
    MisbehaviorConfig misbehavior;
  };

  AckMangler(sim::Simulator& sim, Config config, sim::Rng rng,
             ForwardFn forward);

  // Pool-recycle: returns the mangler to a freshly-constructed state for
  // a new (config, rng) pair, keeping the forward callback. Precondition:
  // the owning Simulator has been reset. Allocates only when the new
  // config enables misbehavior (the misbehaver is recreated).
  void reset(Config config, sim::Rng rng);

  void on_ack(Segment&& ack);

  // The loss stream, for seeding it alongside the path's other streams
  // (sim::Rng::prime); it draws only when ack_loss_probability > 0.
  sim::Rng& rng() { return rng_; }

  uint64_t acks_seen() const { return acks_seen_; }
  uint64_t acks_forwarded() const { return acks_forwarded_; }
  uint64_t acks_dropped() const { return acks_dropped_; }
  uint64_t acks_coalesced() const { return acks_coalesced_; }
  // Null when no misbehavior is configured (the common case).
  const AckMisbehaver* misbehaver() const { return misbehaver_.get(); }

 private:
  void impair(Segment&& ack);  // loss + stretch, post-misbehavior
  void flush();

  sim::Simulator& sim_;
  Config config_;
  sim::Rng rng_;
  ForwardFn forward_;
  std::unique_ptr<AckMisbehaver> misbehaver_;
  sim::Timer flush_timer_;
  std::optional<Segment> held_;
  uint32_t held_count_ = 0;
  uint64_t acks_seen_ = 0;
  uint64_t acks_forwarded_ = 0;
  uint64_t acks_dropped_ = 0;
  uint64_t acks_coalesced_ = 0;
};

}  // namespace prr::net
