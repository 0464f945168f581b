#include "tcp/cc/gaimd.h"

#include <algorithm>
#include <cmath>

#include "tcp/cc/cubic.h"
#include "tcp/cc/binomial.h"
#include "tcp/cc/newreno.h"

namespace prr::tcp {

// The factory's GAIMD additive increase: one segment per RTT, as Reno.
constexpr double kGaimdAlpha = 1.0;

uint64_t Gaimd::ssthresh_after_loss(uint64_t cwnd_bytes) {
  const double target = std::max(static_cast<double>(cwnd_bytes) * beta_,
                                 2.0 * mss_);
  return static_cast<uint64_t>(target);
}

uint64_t Gaimd::on_ack(uint64_t cwnd_bytes, uint64_t ssthresh_bytes,
                       uint64_t acked_bytes, sim::Time) {
  if (cwnd_bytes < ssthresh_bytes) {
    return cwnd_bytes + std::min<uint64_t>(acked_bytes, mss_);
  }
  avoid_acc_ += acked_bytes;
  if (avoid_acc_ >= cwnd_bytes) {
    avoid_acc_ -= cwnd_bytes;
    return cwnd_bytes + static_cast<uint64_t>(alpha_ * mss_);
  }
  return cwnd_bytes;
}

std::unique_ptr<CongestionControl> make_congestion_control(
    CcKind kind, uint32_t mss, double gaimd_beta) {
  switch (kind) {
    case CcKind::kNewReno:
      return std::make_unique<NewReno>(mss);
    case CcKind::kCubic:
      return std::make_unique<Cubic>(mss);
    case CcKind::kGaimd:
      return std::make_unique<Gaimd>(mss, kGaimdAlpha, gaimd_beta);
    case CcKind::kBinomial:
      return std::make_unique<Binomial>(mss);  // IIAD defaults (k=1, l=0)
  }
  return nullptr;
}

bool reset_congestion_control(CongestionControl& cc, CcKind kind,
                              uint32_t mss, double gaimd_beta) {
  // Copy-assignment from a freshly constructed instance is the poison-
  // proof definition of "reset": the recycled object is byte-for-byte
  // what the factory would have produced.
  switch (kind) {
    case CcKind::kNewReno:
      if (auto* p = dynamic_cast<NewReno*>(&cc)) {
        *p = NewReno(mss);
        return true;
      }
      return false;
    case CcKind::kCubic:
      if (auto* p = dynamic_cast<Cubic*>(&cc)) {
        *p = Cubic(mss);
        return true;
      }
      return false;
    case CcKind::kGaimd:
      if (auto* p = dynamic_cast<Gaimd*>(&cc)) {
        *p = Gaimd(mss, kGaimdAlpha, gaimd_beta);
        return true;
      }
      return false;
    case CcKind::kBinomial:
      if (auto* p = dynamic_cast<Binomial*>(&cc)) {
        *p = Binomial(mss);
        return true;
      }
      return false;
  }
  return false;
}

}  // namespace prr::tcp
