// Loss models applied to the data direction of a path. Each model decides
// per segment whether the network drops it. Deterministic (index-based)
// drops reproduce the paper's Figure 2-4 scenarios; Gilbert-Elliott
// produces the correlated bursts the paper measures (~3 fast retransmits
// per recovery event).
#pragma once

#include <cstdint>
#include <memory>
#include <set>
#include <vector>

#include "net/segment.h"
#include "sim/rng.h"
#include "sim/simulator.h"

namespace prr::net {

class LossModel {
 public:
  virtual ~LossModel() = default;
  // Returns true if the network drops this segment.
  virtual bool should_drop(const Segment& seg) = 0;
};

// Never drops.
class NoLoss final : public LossModel {
 public:
  bool should_drop(const Segment&) override { return false; }
};

// Independent per-segment drop probability.
class BernoulliLoss final : public LossModel {
 public:
  BernoulliLoss(double p, sim::Rng rng) : p_(p), rng_(rng) {}
  bool should_drop(const Segment&) override { return rng_.bernoulli(p_); }

 private:
  double p_;
  sim::Rng rng_;
};

// Two-state Markov (Gilbert-Elliott) burst-loss model. In the Good state
// segments drop with p_good (usually 0); in Bad with p_bad (usually high).
// Mean burst length = 1 / p_bad_to_good.
class GilbertElliottLoss final : public LossModel {
 public:
  struct Params {
    double p_good_to_bad = 0.005;  // per segment
    double p_bad_to_good = 0.33;   // => mean bad-state run of ~3 segments
    double loss_in_good = 0.0;
    double loss_in_bad = 0.9;
  };
  GilbertElliottLoss(Params p, sim::Rng rng) : p_(p), rng_(rng) {}
  bool should_drop(const Segment&) override;

 private:
  Params p_;
  sim::Rng rng_;
  bool bad_ = false;
};

// Drops data segments by 1-based index in the arrival order of *original*
// (non-retransmit) transmissions, exactly the "drop segments 1-4 and
// 11-16" style scenarios of the paper's figures. Retransmissions are
// dropped only if their index is listed in retransmit_drops (counted over
// retransmissions seen).
class DeterministicLoss final : public LossModel {
 public:
  explicit DeterministicLoss(std::set<uint64_t> original_drops,
                             std::set<uint64_t> retransmit_drops = {})
      : original_drops_(std::move(original_drops)),
        retransmit_drops_(std::move(retransmit_drops)) {}
  bool should_drop(const Segment& seg) override;

  uint64_t originals_seen() const { return originals_seen_; }

 private:
  std::set<uint64_t> original_drops_;
  std::set<uint64_t> retransmit_drops_;
  uint64_t originals_seen_ = 0;
  uint64_t retransmits_seen_ = 0;
};

// Time-based outages (cellular dead zones, Wi-Fi roams): every so often
// the path goes completely dark for a while, dropping everything. This
// is what drives consecutive RTO backoffs and slow-start retransmissions
// in the paper's Table 2 (DC2's 29% slow-start retransmits need outages
// longer than one RTO).
class OutageLoss final : public LossModel {
 public:
  struct Params {
    sim::Time mean_time_between = sim::Time::seconds(60);
    sim::Time mean_duration = sim::Time::seconds(2);
  };
  OutageLoss(sim::Simulator& sim, Params params, sim::Rng rng);
  bool should_drop(const Segment& seg) override;
  bool in_outage() const;

 private:
  void roll_next_outage();

  sim::Simulator& sim_;
  Params params_;
  sim::Rng rng_;
  sim::Time outage_start_;
  sim::Time outage_end_;
};

// Composite: drops if any child drops.
class CompositeLoss final : public LossModel {
 public:
  void add(std::unique_ptr<LossModel> m) { models_.push_back(std::move(m)); }
  bool should_drop(const Segment& seg) override {
    bool drop = false;
    for (auto& m : models_) drop = m->should_drop(seg) || drop;
    return drop;
  }

 private:
  std::vector<std::unique_ptr<LossModel>> models_;
};

}  // namespace prr::net
