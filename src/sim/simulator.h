// The simulator: owns the clock and event queue, provides scheduling in
// relative or absolute time plus cancellable Timer handles. Callbacks are
// EventCallback (small-buffer inline storage), so scheduling a typical
// closure allocates nothing; Timer rearms by rescheduling its event slot
// in place instead of cancelling and reallocating.
//
// Batch delivery (DESIGN.md §12): with set_batch_delivery(true), trusted
// sources (net::Link ACK trains, Timer coalesced rearms) may dispatch
// work inline under pre-drawn sequence numbers instead of going through
// the queue, provided can_dispatch_inline() proves no queued event would
// have fired first. The observable schedule — clock values, callback
// order, seq consumption — is byte-identical to per-event mode; only the
// number of priority-queue operations changes.
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <vector>

#include "sim/event_queue.h"
#include "sim/time.h"
#include "util/log2_hist.h"

namespace prr::sim {

class Timer;

class Simulator {
 public:
  Time now() const { return now_; }

  // Schedules fn at now() + delay (delay clamped to >= 0).
  EventId schedule_in(Time delay, EventCallback fn);
  // Schedules fn at absolute time `at` (clamped to >= now()).
  EventId schedule_at(Time at, EventCallback fn);
  // Moves a pending event to now() + delay, keeping its callback.
  // Returns the new id, or kInvalidEventId if `id` was stale.
  EventId reschedule_in(Time delay, EventId id);
  void cancel(EventId id) { queue_.cancel(id); }

  // ---- batch delivery (net::Link trains, Timer coalesced rearms) ----
  bool batch_delivery() const { return batch_delivery_; }
  // Set before the run (idle simulator); per-event and batch mode are
  // observation-equivalent, so this is a performance toggle only.
  void set_batch_delivery(bool on) { batch_delivery_ = on; }

  // Draws the next FIFO seq without scheduling (see EventQueue::take_seq).
  uint64_t take_seq() { return queue_.take_seq(); }
  // Scheduling under a pre-drawn seq, at an absolute time.
  EventId schedule_at_with_seq(Time at, uint64_t seq, EventCallback fn) {
    if (at < now_) at = now_;
    return queue_.schedule_with_seq(at, seq, std::move(fn));
  }
  EventId reschedule_at_with_seq(EventId id, Time at, uint64_t seq) {
    if (at < now_) at = now_;
    return queue_.reschedule_with_seq(id, at, seq);
  }
  // True when a batch source may dispatch (at, seq) inline right now:
  // nothing queued (after materializing any deferred timer rearms that
  // could land at or before `at`) would have fired first, and `at` does
  // not overrun the deadline of the step() in progress.
  bool can_dispatch_inline(Time at, uint64_t seq) {
    if (at > deadline_) return false;
    if (!lazy_timers_.empty() && at >= lazy_barrier_) flush_lazy();
    return queue_.next_is_after(at, seq);
  }
  // Advances the clock to a batched sub-event's own timestamp before its
  // inline dispatch, keeping events_processed() identical to per-event
  // mode (each batched delivery counts as one event).
  void advance_to(Time t) {
    assert(t >= now_);
    now_ = t;
    ++events_processed_;
  }

  // Runs events until the queue drains or `deadline` passes. Returns the
  // final clock value.
  Time run(Time deadline = Time::infinite());

  // Runs a single event if one exists before deadline; returns false if
  // the queue is empty or the next event is after deadline.
  bool step(Time deadline = Time::infinite());

  bool idle() const { return queue_.empty() && lazy_timers_.empty(); }
  uint64_t events_processed() const { return events_processed_; }

  // Returns the simulator to its freshly-constructed state (clock at
  // zero, no pending events, no profiler tap) while keeping the event
  // queue's slot/heap capacity and the configured batch-delivery mode.
  // EventIds issued before reset() are stale afterwards and safe to
  // cancel/reschedule (no-ops), which is what lets pooled Timers survive
  // across connections.
  void reset();

  // Self-profiling tap (obs::SelfProfiler): when set, step() wall-clock
  // times each event callback and records the nanoseconds into `hist`.
  // Null (the default), step() pays one branch and takes no clock
  // readings, so simulation behavior and performance are untouched.
  void set_slice_histogram(util::Log2Histogram* hist) { slice_ns_ = hist; }

 private:
  friend class Timer;

  // Deferred (coalesced) timer rearms: registered Timers have drawn their
  // seq and recorded their new expiry but not yet touched the queue.
  // flush_lazy() materializes them; step()/can_dispatch_inline() call it
  // before anything at/after lazy_barrier_ (the earliest time at which a
  // deferred rearm could matter) can dispatch.
  void register_lazy(Timer* t);
  void deregister_lazy(Timer* t);
  void note_lazy_barrier(Time b) {
    if (b < lazy_barrier_) lazy_barrier_ = b;
  }
  void flush_lazy();

  Time now_ = Time::zero();
  Time deadline_ = Time::infinite();  // deadline of the step() in progress
  EventQueue queue_;
  uint64_t events_processed_ = 0;
  bool batch_delivery_ = false;
  std::vector<Timer*> lazy_timers_;
  Time lazy_barrier_ = Time::infinite();
  util::Log2Histogram* slice_ns_ = nullptr;
};

// RAII-free cancellable timer bound to a Simulator. Rescheduling cancels
// any pending expiry. Used for RTO, delayed-ACK, ER-delay timers. A
// restart while pending reuses the armed event's slot and callback
// (EventQueue::reschedule), so the per-ACK rearm that RTO management
// performs allocates nothing and constructs nothing.
class Timer {
 public:
  Timer(Simulator& sim, std::function<void()> on_expire)
      : sim_(&sim), on_expire_(std::move(on_expire)) {}
  ~Timer() { stop(); }
  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;

  // (Re)arms the timer to fire `delay` from now.
  void start(Time delay);
  // Like start(), but in batch-delivery mode the queue update is
  // deferred: the FIFO seq is drawn immediately (so tie-break order is
  // untouched) and the entry is materialized by Simulator::flush_lazy()
  // before anything at or after min(old expiry, new expiry) can
  // dispatch. A rearm-per-ACK pattern then costs one queue push per
  // train instead of one per ACK. Outside batch mode this is start().
  void start_coalesced(Time delay);
  void stop();
  bool pending() const { return lazy_ || id_ != kInvalidEventId; }
  Time expiry() const { return expiry_; }

  // Trace tap (flight recorder): called with (op, expiry) on every arm
  // (kOpSchedule, expiry = when it will fire), expiry (kOpFire), and
  // explicit cancellation of a pending timer (kOpCancel). Unset by
  // default; the armed-event fast path then pays nothing.
  static constexpr uint8_t kOpSchedule = 0;
  static constexpr uint8_t kOpFire = 1;
  static constexpr uint8_t kOpCancel = 2;
  void set_trace(std::function<void(uint8_t op, Time expiry)> trace) {
    trace_ = std::move(trace);
  }

 private:
  friend class Simulator;

  // Materializes a deferred rearm (registered state only; the Simulator
  // clears its registry after flushing everyone).
  void flush_deferred();

  Simulator* sim_;
  std::function<void()> on_expire_;
  std::function<void(uint8_t, Time)> trace_;
  EventId id_ = kInvalidEventId;
  Time expiry_ = Time::infinite();
  // Deferred-rearm state: valid while lazy_ (registered with sim_).
  Time armed_at_ = Time::infinite();  // time of the live queue entry
  uint64_t pending_seq_ = 0;
  bool lazy_ = false;
};

}  // namespace prr::sim
