#include "tcp/cc/gaimd.h"

#include <algorithm>
#include <cmath>

#include "tcp/cc/congestion_control.h"

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

CongestionControl make_congestion_control(CcKind kind, uint32_t mss,
                                          double gaimd_beta) {
  switch (kind) {
    case CcKind::kNewReno:
      return NewReno(mss);
    case CcKind::kCubic:
      return Cubic(mss);
    case CcKind::kGaimd:
      return Gaimd(mss, kGaimdAlpha, gaimd_beta);
    case CcKind::kBinomial:
      return Binomial(mss);  // IIAD defaults (k=1, l=0)
  }
  return NewReno(mss);
}

}  // namespace prr::tcp
