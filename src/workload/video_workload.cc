#include "workload/video_workload.h"

#include <algorithm>
#include <cmath>

namespace prr::workload {

ConnectionSample VideoWorkload::sample(sim::Rng rng) const {
  ConnectionSample s;
  sample_into(rng, s);
  return s;
}

void VideoWorkload::sample_into(sim::Rng rng, ConnectionSample& s) const {
  s.reset_keep_capacity();
  sim::Rng net_rng = rng.fork(1);
  sim::Rng app_rng = rng.fork(2);
  sim::Rng::prime({&net_rng, &app_rng});

  const double rtt_ms = std::clamp(
      net_rng.lognormal_with_mean(params_.mean_rtt_ms, params_.rtt_sigma),
      100.0, 4000.0);
  s.rtt = sim::Time::milliseconds(static_cast<int64_t>(rtt_ms));

  const double bw = std::clamp(
      net_rng.lognormal_with_mean(params_.mean_bandwidth_mbps,
                                  params_.bandwidth_sigma),
      0.2, 5.0);
  s.bandwidth = util::DataRate::mbps(bw);
  const double bdp_packets = bw * 1e6 / 8.0 * (rtt_ms / 1000.0) / 1500.0;
  s.queue_packets =
      static_cast<std::size_t>(std::max(50.0, 1.5 * bdp_packets));

  if (net_rng.uniform() < params_.clean_path_fraction) {
    s.loss.p_good_to_bad = 0.0;
    s.loss.loss_in_bad = 0.0;
  } else {
    s.loss.p_good_to_bad =
        std::min(0.1, net_rng.exponential(params_.lossy_p_good_to_bad));
    s.loss.p_bad_to_good = 1.0 / params_.mean_burst_len;
    s.loss.loss_in_good = 0.0;
    s.loss.loss_in_bad = params_.loss_in_bad;
  }

  if (net_rng.uniform() < params_.outage_client_fraction) {
    s.outages = true;
    s.outage.mean_time_between =
        sim::Time::seconds(params_.outage_mean_gap_s);
    s.outage.mean_duration =
        sim::Time::seconds(params_.outage_mean_duration_s);
  }
  s.ack_loss_prob = params_.ack_loss_prob;
  s.ack_stretch =
      net_rng.uniform() < params_.stretch_client_fraction ? 2 : 1;
  s.reorder_prob = params_.reorder_prob;
  s.reorder_max = std::max(sim::Time::milliseconds(2), s.rtt / 16);
  s.client_sack = net_rng.uniform() < params_.sack_client_fraction;
  s.client_timestamps =
      net_rng.uniform() < params_.timestamp_client_fraction;
  s.client_dsack =
      s.client_sack && net_rng.uniform() < params_.dsack_client_fraction;

  const uint64_t bytes = static_cast<uint64_t>(std::clamp(
      app_rng.lognormal_with_mean(params_.mean_transfer_bytes,
                                  params_.transfer_sigma),
      200e3, 20e6));
  http::ResponseSpec spec;
  spec.bytes = bytes;
  // Progressive HTTP: an initial burst, then chunks at the encoding rate.
  spec.burst_bytes = static_cast<uint64_t>(
      params_.encoding_rate_mbps * 1e6 / 8.0 * params_.burst_seconds);
  spec.chunk_interval = sim::Time::milliseconds(250);
  spec.chunk_bytes = static_cast<uint64_t>(
      params_.encoding_rate_mbps * 1e6 / 8.0 * 0.25);
  s.responses.push_back(spec);
}

}  // namespace prr::workload
