#include "exp/conn_arena.h"

#include <cassert>

namespace prr::exp {

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
