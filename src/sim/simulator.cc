#include "sim/simulator.h"

#include <algorithm>
#include <chrono>
#include <utility>

namespace prr::sim {

EventId Simulator::schedule_in(Time delay, EventCallback fn) {
  if (delay < Time::zero()) delay = Time::zero();
  return queue_.schedule(now_ + delay, std::move(fn));
}

EventId Simulator::schedule_at(Time at, EventCallback fn) {
  if (at < now_) at = now_;
  return queue_.schedule(at, std::move(fn));
}

EventId Simulator::reschedule_in(Time delay, EventId id) {
  if (delay < Time::zero()) delay = Time::zero();
  return queue_.reschedule(id, now_ + delay);
}

Time Simulator::run(Time deadline) {
  while (step(deadline)) {
  }
  if (now_ < deadline && !deadline.is_infinite()) now_ = deadline;
  return now_;
}

void Simulator::reset() {
  now_ = Time::zero();
  deadline_ = Time::infinite();
  queue_.clear();
  events_processed_ = 0;
  slice_ns_ = nullptr;
  // Deferred rearms belong to Timers of the torn-down connection; their
  // queue entries are gone with clear() and their ids are stale.
  for (Timer* t : lazy_timers_) t->lazy_ = false;
  lazy_timers_.clear();
  lazy_barrier_ = Time::infinite();
}

bool Simulator::step(Time deadline) {
  Time next = queue_.next_time();
  // Materialize deferred timer rearms before anything at/after the
  // barrier could fire (including the case of an otherwise-empty queue:
  // a deferred rearm IS pending work).
  if (!lazy_timers_.empty() && next >= lazy_barrier_) {
    flush_lazy();
    next = queue_.next_time();
  }
  if (next.is_infinite() || next > deadline) return false;
  // Advance the clock before dispatching so callbacks see now() == their
  // scheduled time (nested schedule_in must be relative to it).
  now_ = next;
  deadline_ = deadline;
  if (slice_ns_ != nullptr) {
    const auto t0 = std::chrono::steady_clock::now();
    queue_.run_next();
    const auto t1 = std::chrono::steady_clock::now();
    slice_ns_->record(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
            .count()));
  } else {
    queue_.run_next();
  }
  ++events_processed_;
  return true;
}

void Simulator::register_lazy(Timer* t) { lazy_timers_.push_back(t); }

void Simulator::deregister_lazy(Timer* t) {
  auto it = std::find(lazy_timers_.begin(), lazy_timers_.end(), t);
  if (it != lazy_timers_.end()) lazy_timers_.erase(it);
  if (lazy_timers_.empty()) lazy_barrier_ = Time::infinite();
  // A non-empty list keeps the old (possibly too-early) barrier: an
  // early flush is always safe, a late one never happens.
}

void Simulator::flush_lazy() {
  for (Timer* t : lazy_timers_) t->flush_deferred();
  lazy_timers_.clear();
  lazy_barrier_ = Time::infinite();
}

void Timer::start(Time delay) {
  expiry_ = sim_->now() + delay;
  if (trace_) trace_(kOpSchedule, expiry_);
  if (lazy_) {
    // A deferred rearm is superseded before it materialized. Per-event
    // mode would have consumed one seq per start; the deferred one was
    // already drawn, so draw the eager one fresh and materialize now.
    lazy_ = false;
    sim_->deregister_lazy(this);
  }
  if (id_ != kInvalidEventId) {
    // Rearm in place: the armed event keeps its slot and callback.
    id_ = sim_->reschedule_in(delay, id_);
    if (id_ != kInvalidEventId) {
      armed_at_ = expiry_;
      return;
    }
  }
  id_ = sim_->schedule_in(delay, [this] {
    id_ = kInvalidEventId;
    expiry_ = Time::infinite();
    if (trace_) trace_(kOpFire, sim_->now());
    on_expire_();
  });
  armed_at_ = expiry_;
}

void Timer::start_coalesced(Time delay) {
  if (!sim_->batch_delivery()) {
    start(delay);
    return;
  }
  expiry_ = sim_->now() + delay;
  if (trace_) trace_(kOpSchedule, expiry_);
  // Draw the seq at exactly the point per-event mode would have pushed,
  // then defer the queue update. The barrier covers both the old armed
  // entry (it must not fire while superseded) and the new expiry (the
  // materialized entry must exist before its own fire time).
  pending_seq_ = sim_->take_seq();
  if (!lazy_) {
    lazy_ = true;
    sim_->register_lazy(this);
  }
  Time barrier = expiry_;
  if (id_ != kInvalidEventId && armed_at_ < barrier) barrier = armed_at_;
  sim_->note_lazy_barrier(barrier);
}

void Timer::flush_deferred() {
  lazy_ = false;
  if (id_ != kInvalidEventId) {
    id_ = sim_->reschedule_at_with_seq(id_, expiry_, pending_seq_);
    if (id_ != kInvalidEventId) {
      armed_at_ = expiry_;
      return;
    }
  }
  id_ = sim_->schedule_at_with_seq(expiry_, pending_seq_, [this] {
    id_ = kInvalidEventId;
    expiry_ = Time::infinite();
    if (trace_) trace_(kOpFire, sim_->now());
    on_expire_();
  });
  armed_at_ = expiry_;
}

void Timer::stop() {
  const bool was_pending = pending();
  if (lazy_) {
    lazy_ = false;
    sim_->deregister_lazy(this);
  }
  if (id_ != kInvalidEventId) {
    sim_->cancel(id_);
    id_ = kInvalidEventId;
  }
  if (was_pending) {
    if (trace_) trace_(kOpCancel, expiry_);
    expiry_ = Time::infinite();
  }
}

}  // namespace prr::sim
