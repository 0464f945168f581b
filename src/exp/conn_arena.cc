#include "exp/conn_arena.h"

#include <cassert>

namespace prr::exp {

void RegistryHandles::bind(obs::MetricsRegistry& reg) {
  owner = &reg;
  retransmits_per_conn = reg.histogram("tcp.retransmits_per_conn");
  timeouts_per_conn = reg.histogram("tcp.timeouts_per_conn");
  final_cwnd_bytes = reg.histogram("tcp.final_cwnd_bytes");
  conn_sim_time_ns = reg.histogram("exp.conn_sim_time_ns");
  max_conn_sim_time_ns = reg.gauge("exp.max_conn_sim_time_ns");
  connections_completed = nullptr;
  trace_records_written = nullptr;
  trace_records_dropped = nullptr;
}

void ConnArena::check_reset_state() {
#ifndef NDEBUG
  assert(sim.now().is_zero());
  assert(sim.events_processed() == 0);
  if (conn) {
    tcp::Sender& s = conn->sender();
    assert(s.snd_una() == 0);
    assert(s.snd_nxt() == 0);
    assert(s.write_end() == 0);
    assert(!s.aborted());
    assert(!s.loss_timers_pending());
    assert(conn->receiver().rcv_nxt() == 0);
  }
#endif
}

}  // namespace prr::exp
