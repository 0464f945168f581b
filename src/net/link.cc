#include "net/link.h"

#include <algorithm>
#include <utility>

namespace prr::net {

Link::Link(sim::Simulator& sim, Config config, DeliverFn deliver)
    : sim_(sim),
      config_(config),
      deliver_(std::move(deliver)),
      loss_(std::make_unique<NoLoss>()),
      reorder_(std::make_unique<NoReorder>()) {
  pool_.reserve(kInitialSlots);
  free_.reserve(kInitialSlots);
}

void Link::reset(Config config) {
  config_ = config;
  if (models_customized_) {
    loss_ = std::make_unique<NoLoss>();
    reorder_ = std::make_unique<NoReorder>();
    models_customized_ = false;
  }
  // Every slot is dead (the simulator reset dropped the events that
  // referenced them): forget them all at once, keeping pool capacity.
  queue_.clear();
  free_.clear();
  high_water_ = 0;
  retired_pool_ = std::vector<Segment>();
  delivering_ = false;
  serializing_ = kNoSlot;
  train_.clear();
  train_head_ = 0;
  drain_id_ = sim::kInvalidEventId;
  busy_ = false;
  blackout_ = false;
  stats_ = {};
}

uint32_t Link::acquire_slot() {
  if (!free_.empty()) {
    const uint32_t slot = free_.back();
    free_.pop_back();
    return slot;
  }
  if (high_water_ == pool_.size()) {
    if (delivering_ && retired_pool_.empty()) {
      // A sink is reading one of this buffer's slots and is sending from
      // inside the delivery: keep the buffer alive until it returns and
      // grow into a fresh one.
      std::vector<Segment> grown;
      grown.reserve(2 * pool_.size());
      grown.assign(pool_.begin(), pool_.end());
      retired_pool_ = std::move(pool_);
      pool_ = std::move(grown);
    }
    pool_.emplace_back();
  }
  return high_water_++;
}

void Link::send(Segment&& seg) {
  if (config_.ecn_mark_threshold > 0 && seg.ect &&
      queue_depth() >= config_.ecn_mark_threshold) {
    seg.ce = true;
    ++stats_.ce_marked;
  }
  if (busy_ && queue_.size() >= config_.queue_limit_packets) {
    ++stats_.dropped_queue;
    return;
  }
  const uint32_t slot = acquire_slot();
  pool_[slot] = seg;  // the hop's one write of the segment
  if (busy_) {
    queue_.push_back(slot);
    stats_.max_queue_depth =
        std::max<uint64_t>(stats_.max_queue_depth, queue_.size());
    return;
  }
  begin_serialization(slot);
}

void Link::begin_serialization(uint32_t slot) {
  ++stats_.enqueued;
  busy_ = true;
  serializing_ = slot;
  const sim::Time serialize =
      config_.rate.transmit_time(pool_[slot].wire_size());
  sim_.schedule_in(serialize, [this] { finish_transmission(); });
}

void Link::set_queue_limit(std::size_t packets) {
  config_.queue_limit_packets = packets;
  while (queue_.size() > config_.queue_limit_packets) {
    release_slot(queue_.back());
    queue_.drop_back();
    ++stats_.dropped_queue;
  }
}

void Link::finish_transmission() {
  // Serialization done: propagate (plus any reordering extra delay) and
  // start the next queued segment.
  const uint32_t slot = serializing_;
  const Segment& seg = pool_[slot];
  if (blackout_) {
    ++stats_.dropped_blackout;
    release_slot(slot);
  } else if (loss_->should_drop(seg)) {
    ++stats_.dropped_loss_model;
    release_slot(slot);
  } else {
    const sim::Time total = config_.propagation_delay +
                            reorder_->extra_delay(seg);
    ++stats_.delivered;
    if (sim_.batch_delivery()) {
      // Draw the seq at exactly the point per-event mode would schedule,
      // so the (time, seq) key — and hence global dispatch order — is
      // identical; only the queue traffic differs (one drain event per
      // contiguous train instead of one event per segment).
      const uint64_t seq = sim_.take_seq();
      sim::Time at = sim_.now() + total;
      if (at < sim_.now()) at = sim_.now();
      enqueue_flight(at, seq, slot);
    } else {
      sim_.schedule_in(total, [this, slot] { deliver_flight(slot); });
    }
  }
  busy_ = false;
  start_transmission();
}

void Link::enqueue_flight(sim::Time at, uint64_t seq, uint32_t slot) {
  if (train_head_ == train_.size()) {
    train_.clear();
    train_head_ = 0;
  }
  const bool was_empty = train_.size() == train_head_;
  bool new_front = was_empty;
  if (was_empty || at > train_.back().at ||
      (at == train_.back().at && seq > train_.back().seq)) {
    // Common case: delivery times are nondecreasing (fixed propagation
    // delay), so the new arrival appends at the tail.
    train_.push_back(FlightEvent{at, seq, slot});
  } else {
    // A propagation-delay shrink mid-train (route-change fault) delivers
    // this segment before ones already propagating — insert in (at, seq)
    // order, exactly where the event queue would have sorted it.
    auto pos = std::upper_bound(
        train_.begin() + static_cast<std::ptrdiff_t>(train_head_),
        train_.end(), FlightEvent{at, seq, slot},
        [](const FlightEvent& a, const FlightEvent& b) {
          if (a.at != b.at) return a.at < b.at;
          return a.seq < b.seq;
        });
    new_front =
        pos == train_.begin() + static_cast<std::ptrdiff_t>(train_head_);
    train_.insert(pos, FlightEvent{at, seq, slot});
  }
  if (new_front) {
    // The drain event always carries the front's own (time, seq) key, so
    // it dispatches exactly when the front's per-event entry would have.
    if (drain_id_ != sim::kInvalidEventId) {
      drain_id_ = sim_.reschedule_at_with_seq(drain_id_, at, seq);
    }
    if (drain_id_ == sim::kInvalidEventId) {
      drain_id_ =
          sim_.schedule_at_with_seq(at, seq, [this] { drain_train(); });
    }
  }
}

void Link::drain_train() {
  drain_id_ = sim::kInvalidEventId;  // this event is firing
  bool first = true;
  for (;;) {
    const FlightEvent fe = train_[train_head_++];
    // The drain event fired at the front's own timestamp; each further
    // batched delivery advances the clock to its own timestamp first, so
    // every deliver_ callback sees exactly the now() it sees per-event.
    if (!first) sim_.advance_to(fe.at);
    first = false;
    deliver_flight(fe.slot);
    if (train_head_ == train_.size()) {
      train_.clear();
      train_head_ = 0;
      return;
    }
    const FlightEvent& next = train_[train_head_];
    if (!sim_.can_dispatch_inline(next.at, next.seq)) {
      // A queued event (or the step deadline) comes first: put the rest
      // of the train back behind a drain event under the front's
      // original key and yield to the queue.
      drain_id_ = sim_.schedule_at_with_seq(next.at, next.seq,
                                            [this] { drain_train(); });
      return;
    }
  }
}

void Link::deliver_flight(uint32_t slot) {
  // The sink reads the segment in place; its slot is recycled only once
  // the sink returns, so a send from inside the sink cannot reuse it.
  delivering_ = true;
  deliver_(std::move(pool_[slot]));
  delivering_ = false;
  release_slot(slot);
  if (!retired_pool_.empty()) retired_pool_ = std::vector<Segment>();
}

void Link::start_transmission() {
  if (busy_ || queue_.empty()) return;
  begin_serialization(queue_.pop_front());
}

}  // namespace prr::net
