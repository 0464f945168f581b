// Point-to-point link: serialization at a configurable rate, propagation
// delay, and a drop-tail queue bounded in packets. Loss and reordering
// models plug in at egress (after the queue), so queue overflows and
// modeled network drops are counted separately.
//
// Rate, propagation delay, queue limit, and a blackout gate are mutable
// at runtime (route changes, rebuffering links, transient dead zones —
// see net/fault_injector.h). Mutations respect in-flight segments: a
// segment whose serialization already started completes at the old rate,
// a segment already propagating keeps its old delivery time, and a queue
// shrink drops the excess from the tail as ordinary queue drops.
//
// One write per hop: send() copies the segment once into a slot of the
// link's pool, and the queue, the serializer, the loss/reorder models,
// the batch-delivery train and the sink all work on that slot in place
// (Segment is trivially copyable, so the copy is a memcpy). Queue and
// events carry only slot indices, so the steady-state forwarding path
// performs no heap allocation. Every drop path — queue overflow, a
// queue-limit shrink, the loss model, a blackout — returns its slot to
// the free list, and reset() empties the pool in O(1).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "net/loss_model.h"
#include "net/reorder_model.h"
#include "net/segment.h"
#include "sim/simulator.h"
#include "util/ring_queue.h"
#include "util/units.h"

namespace prr::net {

struct LinkStats {
  uint64_t delivered = 0;
  uint64_t dropped_queue = 0;
  uint64_t dropped_loss_model = 0;
  uint64_t dropped_blackout = 0;
  uint64_t enqueued = 0;
  uint64_t max_queue_depth = 0;
  uint64_t ce_marked = 0;
};

class Link {
 public:
  using DeliverFn = std::function<void(Segment&&)>;

  struct Config {
    util::DataRate rate = util::DataRate::mbps(10);
    sim::Time propagation_delay = sim::Time::milliseconds(10);
    std::size_t queue_limit_packets = 1000;
    // ECN marking (RFC 3168 AQM-lite): when > 0, ECT segments arriving
    // to a queue at/above this depth are CE-marked instead of being
    // allowed to build further standing queue. 0 disables marking.
    std::size_t ecn_mark_threshold = 0;
  };

  Link(sim::Simulator& sim, Config config, DeliverFn deliver);

  // Replaces the delivery callback. The sink gets the segment in its
  // pool slot, which is recycled when the sink returns; the sink may
  // send on any link, this one included.
  void set_sink(DeliverFn deliver) { deliver_ = std::move(deliver); }

  // Pool-recycle: returns the link to a freshly-constructed state under a
  // new config while keeping queue and slot-pool capacity and the delivery
  // callback. Precondition: the owning Simulator has been reset (no
  // serialization/propagation events are pending). Custom loss/reorder
  // models are replaced with the defaults; the common no-model case
  // allocates nothing.
  void reset(Config config);

  void set_loss_model(std::unique_ptr<LossModel> m) {
    loss_ = std::move(m);
    models_customized_ = true;
  }
  void set_reorder_model(std::unique_ptr<ReorderModel> m) {
    reorder_ = std::move(m);
    models_customized_ = true;
  }

  // Enqueues a segment for transmission; drops it if the queue is full.
  void send(Segment&& seg);

  // ---- runtime path mutation (fault injection) ----
  // New rate applies to serializations starting after the call; the
  // segment currently on the wire finishes at the old rate.
  void set_rate(util::DataRate rate) { config_.rate = rate; }
  // New delay applies to segments entering propagation after the call;
  // segments already propagating keep their scheduled delivery times (a
  // shrinking delay can therefore reorder across the change, exactly as
  // a route change does).
  void set_propagation_delay(sim::Time delay) {
    config_.propagation_delay = delay;
  }
  // Shrinking the limit drops the excess from the tail of the queue
  // (counted as queue drops); growing it simply admits more.
  void set_queue_limit(std::size_t packets);
  // While blacked out, every segment reaching the end of serialization is
  // dropped (counted separately from loss-model drops). Segments already
  // propagating still arrive; queued segments survive a short blackout.
  void set_blackout(bool on) { blackout_ = on; }

  util::DataRate rate() const { return config_.rate; }
  sim::Time propagation_delay() const { return config_.propagation_delay; }
  std::size_t queue_limit() const { return config_.queue_limit_packets; }
  bool blackout() const { return blackout_; }

  const LinkStats& stats() const { return stats_; }
  std::size_t queue_depth() const { return queue_.size() + (busy_ ? 1 : 0); }

 private:
  static constexpr uint32_t kNoSlot = 0xffffffffu;
  // Pool capacity reserved up front: a short flow's whole window, so a
  // fresh link grows its pool in one allocation instead of five.
  static constexpr std::size_t kInitialSlots = 16;

  // One propagating segment's scheduled arrival in batch-delivery mode:
  // the (time, seq) key it would have occupied in the event queue, plus
  // its pool slot. The train is kept sorted by (time, seq) and
  // represented in the queue by a single drain event keyed at its front.
  struct FlightEvent {
    sim::Time at;
    uint64_t seq;
    uint32_t slot;
  };

  uint32_t acquire_slot();
  void release_slot(uint32_t slot) { free_.push_back(slot); }
  void begin_serialization(uint32_t slot);
  void start_transmission();
  void finish_transmission();
  void deliver_flight(uint32_t slot);
  void enqueue_flight(sim::Time at, uint64_t seq, uint32_t slot);
  void drain_train();

  sim::Simulator& sim_;
  Config config_;
  DeliverFn deliver_;
  std::unique_ptr<LossModel> loss_;
  std::unique_ptr<ReorderModel> reorder_;
  // Segment pool: every segment the link holds (queued, on the wire or
  // propagating) lives in one slot from send() until it is dropped or
  // delivered. Slots at or above high_water_ are unused since the last
  // reset(); free_ lists the recycled ones below it.
  std::vector<Segment> pool_;
  std::vector<uint32_t> free_;
  uint32_t high_water_ = 0;
  // The pool buffer a sink is reading while a send from inside it grows
  // the pool; released when that delivery returns.
  std::vector<Segment> retired_pool_;
  bool delivering_ = false;
  util::RingQueue<uint32_t> queue_;
  uint32_t serializing_ = kNoSlot;  // the slot on the wire (valid iff busy_)
  // Batch-delivery train (sorted by (at, seq), consumed from train_head_)
  // and the single queue event standing in for its front.
  std::vector<FlightEvent> train_;
  std::size_t train_head_ = 0;
  sim::EventId drain_id_ = sim::kInvalidEventId;
  bool busy_ = false;
  bool blackout_ = false;
  bool models_customized_ = false;
  LinkStats stats_;
};

}  // namespace prr::net
