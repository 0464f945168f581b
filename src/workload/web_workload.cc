#include "workload/web_workload.h"

#include <algorithm>
#include <cmath>

namespace prr::workload {

ConnectionSample WebWorkload::sample(sim::Rng rng) const {
  ConnectionSample s;
  sample_into(rng, s);
  return s;
}

void WebWorkload::sample_into(sim::Rng rng, ConnectionSample& s) const {
  s.reset_keep_capacity();
  sim::Rng net_rng = rng.fork(1);
  sim::Rng app_rng = rng.fork(2);
  sim::Rng::prime({&net_rng, &app_rng});

  const double rtt_ms = std::clamp(
      net_rng.lognormal_with_mean(params_.mean_rtt_ms, params_.rtt_sigma),
      10.0, 3000.0);
  s.rtt = sim::Time::milliseconds(static_cast<int64_t>(rtt_ms));

  const double bw = std::clamp(
      net_rng.lognormal_with_mean(params_.mean_bandwidth_mbps,
                                  params_.bandwidth_sigma),
      0.064, 50.0);
  s.bandwidth = util::DataRate::mbps(bw);

  // Access-link buffers are deep in practice (bufferbloat): at least a
  // few dozen packets regardless of the (often tiny) BDP.
  const double bdp_packets =
      bw * 1e6 / 8.0 * (rtt_ms / 1000.0) / 1500.0;
  s.queue_packets = static_cast<std::size_t>(
      std::max(40.0, 2.0 * bdp_packets));

  if (net_rng.uniform() < params_.clean_path_fraction) {
    s.loss.p_good_to_bad = 0.0;
    s.loss.loss_in_bad = 0.0;
  } else {
    s.loss.p_good_to_bad =
        std::min(0.08, net_rng.exponential(params_.lossy_p_good_to_bad));
    s.loss.p_bad_to_good = 1.0 / params_.mean_burst_len;
    s.loss.loss_in_good = 0.0;
    s.loss.loss_in_bad = params_.loss_in_bad;
  }

  s.ack_loss_prob = params_.ack_loss_prob;
  s.ack_stretch =
      net_rng.uniform() < params_.stretch_client_fraction ? 2 : 1;
  s.reorder_prob = params_.reorder_prob;
  s.reorder_min = sim::Time::milliseconds(1);
  s.reorder_max = std::max(sim::Time::milliseconds(2), s.rtt / 16);
  s.client_sack = net_rng.uniform() < params_.sack_client_fraction;
  s.client_timestamps =
      net_rng.uniform() < params_.timestamp_client_fraction;
  s.client_dsack =
      s.client_sack && net_rng.uniform() < params_.dsack_client_fraction;
  s.client_abandons = net_rng.uniform() < params_.abandon_fraction;
  s.abandon_after = sim::Time::milliseconds(static_cast<int64_t>(
      app_rng.exponential(params_.abandon_after_ms)));

  const int requests = app_rng.geometric(params_.mean_requests_per_conn);
  for (int i = 0; i < requests; ++i) {
    uint64_t bytes;
    if (app_rng.uniform() < params_.tiny_response_fraction) {
      bytes = params_.tiny_response_bytes;
    } else {
      bytes = static_cast<uint64_t>(std::clamp(
          app_rng.lognormal_with_mean(params_.mean_response_bytes,
                                      params_.response_sigma),
          400.0, 500e3));
    }
    sim::Time gap = sim::Time::zero();
    if (i > 0) {
      gap = sim::Time::milliseconds(static_cast<int64_t>(
                app_rng.exponential(params_.mean_gap_ms))) +
            s.rtt;  // request upload takes a round trip
    }
    s.responses.push_back(http::ResponseSpec::plain(bytes, gap));
  }
}

}  // namespace prr::workload
