#include "tcp/metrics.h"

#include <sstream>

namespace prr::tcp {

Metrics& Metrics::operator+=(const Metrics& o) {
  data_segments_sent += o.data_segments_sent;
  bytes_sent += o.bytes_sent;
  retransmits_total += o.retransmits_total;
  fast_retransmits += o.fast_retransmits;
  timeout_retransmits += o.timeout_retransmits;
  slow_start_retransmits += o.slow_start_retransmits;
  failed_retransmits += o.failed_retransmits;
  timeouts_total += o.timeouts_total;
  timeouts_in_open += o.timeouts_in_open;
  timeouts_in_disorder += o.timeouts_in_disorder;
  timeouts_in_recovery += o.timeouts_in_recovery;
  timeouts_exp_backoff += o.timeouts_exp_backoff;
  fast_recovery_events += o.fast_recovery_events;
  dsacks_received += o.dsacks_received;
  recoveries_with_dsack += o.recoveries_with_dsack;
  lost_retransmits_detected += o.lost_retransmits_detected;
  lost_fast_retransmits += o.lost_fast_retransmits;
  undo_events += o.undo_events;
  spurious_retransmits += o.spurious_retransmits;
  spurious_rto_undone += o.spurious_rto_undone;
  ecn_cwr_events += o.ecn_cwr_events;
  tlp_probes_sent += o.tlp_probes_sent;
  er_triggered += o.er_triggered;
  er_delayed_cancelled += o.er_delayed_cancelled;
  er_spurious += o.er_spurious;
  sack_reneg_events += o.sack_reneg_events;
  bad_acks_ignored += o.bad_acks_ignored;
  window_probes_sent += o.window_probes_sent;
  connections += o.connections;
  connections_aborted += o.connections_aborted;
  return *this;
}

std::string Metrics::summary() const {
  std::ostringstream os;
  os << "segments=" << data_segments_sent
     << " retx=" << retransmits_total
     << " fast_retx=" << fast_retransmits
     << " rto=" << timeouts_total
     << " fr_events=" << fast_recovery_events
     << " lost_retx=" << lost_retransmits_detected
     << " undo=" << undo_events;
  return os.str();
}

}  // namespace prr::tcp
