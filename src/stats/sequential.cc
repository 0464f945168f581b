#include "stats/sequential.h"

#include <algorithm>
#include <cmath>

#include "obs/json.h"

namespace prr::stats {

namespace {
// Variance floor: an arm pair whose paired differences are all exactly
// zero (CRN with no behavioural divergence yet) carries no evidence in
// either direction — treat it as underpowered rather than dividing by
// zero.
constexpr double kVarFloor = 1e-300;
}  // namespace

double ConfidenceSequence::variance() const {
  return n_ < 2 ? 0.0 : m2_ / static_cast<double>(n_ - 1);
}

void ConfidenceSequence::observe(double d) {
  ++n_;
  const double delta = d - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (d - mean_);
  // The always-valid p is the running minimum over every peek, so it is
  // updated on each observation, not lazily at read time.
  const double log_e = log_e_value();
  if (log_e > 0) {
    // p = min(p, exp(-log_e)); in log space to survive huge e-values.
    const double candidate = std::exp(-std::min(log_e, 700.0));
    p_ = std::min(p_, candidate);
  }
}

double ConfidenceSequence::log_e_value() const {
  const double var = variance();
  if (n_ < cfg_.min_n || var <= kVarFloor) return 0.0;
  const double n = static_cast<double>(n_);
  const double r = cfg_.mixture_ratio;
  const double denom = 1.0 + n * r;
  return -0.5 * std::log(denom) +
         (n * n * mean_ * mean_ * r) / (2.0 * var * denom);
}

double ConfidenceSequence::radius() const {
  const double var = variance();
  if (n_ < cfg_.min_n || var <= kVarFloor) {
    return std::numeric_limits<double>::infinity();
  }
  const double n = static_cast<double>(n_);
  const double r = cfg_.mixture_ratio;
  const double denom = 1.0 + n * r;
  const double log_term = std::log(denom / (cfg_.alpha * cfg_.alpha));
  return std::sqrt(var * denom / (n * n * r) * log_term);
}

bool ConfidenceSequence::rejects_zero() const {
  return n_ >= cfg_.min_n && p_ <= cfg_.alpha;
}

std::string ConfidenceSequence::to_json() const {
  std::string out = "{\"n\":" + std::to_string(n_);
  out += ",\"mean\":" + obs::json_double(mean_);
  const double rad = radius();
  if (std::isfinite(rad)) {
    out += ",\"lo\":" + obs::json_double(mean_ - rad);
    out += ",\"hi\":" + obs::json_double(mean_ + rad);
  } else {
    out += ",\"lo\":null,\"hi\":null";
  }
  out += ",\"p\":" + obs::json_double(p_);
  out += ",\"log10_e\":" + obs::json_double(log_e_value() / std::log(10.0));
  out += "}";
  return out;
}

}  // namespace prr::stats
