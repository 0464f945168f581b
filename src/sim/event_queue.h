// Event queue built for allocation-free steady-state operation: a
// generation-tagged slot map holds the callbacks (free-listed slots, so
// schedule/fire/cancel recycle storage instead of allocating), and a
// 4-ary min-heap of (time, seq, slot, gen) entries orders them. Equal
// times fire in scheduling order via the seq tie-breaker, exactly as the
// original heap-of-std::function design did.
//
// An EventId packs (generation << 32 | slot index). The generation bumps
// whenever the slot's pending event is fired, cancelled or rescheduled,
// so a stale id can never touch a recycled slot: cancel() and
// reschedule() are O(1) array probes that no-op on dead ids. Heap
// entries whose generation no longer matches their slot are skipped
// lazily on pop. Callbacks are util::InlineFunction, so the typical
// capture (`this` plus a slot index or a Time) lives inside the slot —
// no per-event heap allocation anywhere in the schedule/fire/cancel
// cycle once the slot and heap vectors have reached steady capacity —
// and, being trivially copyable, is relocated by memcpy. The heap
// stores each entry once: insertion and pop move a hole and write the
// entry at its final index, never at a temporary one first.
//
// Batch-delivery support (DESIGN.md §12): take_seq() hands out the next
// FIFO sequence number without scheduling, and schedule_with_seq() /
// reschedule_with_seq() insert an entry under such a pre-drawn seq.
// A caller that dispatches some work inline (net::Link draining an
// ACK train) draws seqs at exactly the call points where per-event mode
// would have scheduled, so the relative order of everything that does
// reach the queue — and hence the dispatch order — is unchanged.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/time.h"
#include "util/inline_function.h"

namespace prr::sim {

using EventId = uint64_t;
inline constexpr EventId kInvalidEventId = 0;

// 48 bytes of inline capture space: enough for a std::function being
// forwarded, or `this` + a couple of words, with headroom.
using EventCallback = util::InlineFunction<void(), 48>;

class EventQueue {
 public:
  // Schedules `fn` at absolute time `at`. Events with equal time fire in
  // scheduling order. Returns an id usable with cancel()/reschedule().
  EventId schedule(Time at, EventCallback fn);

  // Moves a pending event to a new time, keeping its callback and slot
  // (no allocation, no callback reconstruction). The event is re-sequenced
  // as if it had been cancelled and freshly scheduled, so FIFO ordering
  // among equal times is identical to a cancel+schedule pair. Returns the
  // event's new id, or kInvalidEventId if `id` was stale (already fired,
  // cancelled, or never issued) — the caller then schedules normally.
  EventId reschedule(EventId id, Time at);

  // Cancels a pending event. Cancelling an already-fired, already-
  // cancelled, never-issued, or invalid id is a true no-op: the
  // generation check makes stale ids unable to touch a recycled slot.
  void cancel(EventId id);

  bool empty() const { return live_ == 0; }
  std::size_t size() const { return live_; }
  Time next_time() const;

  // ---- batch delivery (pre-drawn sequence numbers) ----
  // Draws the next FIFO sequence number without scheduling anything.
  // A caller that will dispatch work inline (or materialize a deferred
  // timer rearm later) draws its seq at the exact point per-event mode
  // would have scheduled, keeping the global tie-break order identical.
  uint64_t take_seq() { return next_seq_++; }
  // Like schedule()/reschedule(), but under a seq from take_seq().
  EventId schedule_with_seq(Time at, uint64_t seq, EventCallback fn);
  EventId reschedule_with_seq(EventId id, Time at, uint64_t seq);
  // True when the queue is empty or its earliest pending (time, seq) key
  // is strictly after (at, seq) — i.e. dispatching (at, seq) inline now
  // cannot overtake any queued event.
  bool next_is_after(Time at, uint64_t seq) const;

  // Drops every pending event and restarts the FIFO sequence counter, so
  // the queue behaves exactly like a freshly constructed one (equal-time
  // tie-breaking included) while keeping slot and heap capacity. Live
  // slots get their generation bumped, so any EventId issued before
  // clear() — including Timer handles held by pooled objects — goes
  // stale and cancel()/reschedule() on it is a safe no-op.
  void clear();

  // Pops and runs the earliest event; returns its time. Precondition:
  // !empty().
  Time run_next();

 private:
  static constexpr uint32_t kNilIndex = 0xffffffffu;

  struct Slot {
    EventCallback fn;
    uint32_t gen = 1;  // generations start at 1 so no id is ever 0
    uint32_t next_free = kNilIndex;
    bool live = false;
  };
  struct HeapEntry {
    Time at;
    uint64_t seq;  // tie-breaker: FIFO among equal times
    uint32_t slot;
    uint32_t gen;
  };

  static EventId make_id(uint32_t gen, uint32_t index) {
    return (static_cast<EventId>(gen) << 32) | index;
  }
  static uint32_t id_gen(EventId id) { return static_cast<uint32_t>(id >> 32); }
  static uint32_t id_index(EventId id) { return static_cast<uint32_t>(id); }

  static void bump_gen(Slot& s) {
    if (++s.gen == 0) s.gen = 1;  // skip 0 so ids stay non-zero
  }

  Slot* live_slot(EventId id);
  uint32_t acquire_slot();
  void push_entry(Time at, uint64_t seq, uint32_t slot, uint32_t gen);
  void drop_stale_head() const;
  bool entry_stale(const HeapEntry& e) const {
    return slots_[e.slot].gen != e.gen;
  }
  // Fills the hole at `hole` with `e`, moving earlier children up.
  void sift_down(std::size_t hole, HeapEntry e) const;
  void pop_head() const;
  void rebuild_heap() const;

  std::vector<Slot> slots_;
  uint32_t free_head_ = kNilIndex;
  // 4-ary min-heap on (at, seq) — shallower and more
  // cache-friendly than the binary std::push_heap/pop_heap it replaces,
  // with the identical pop order ((at, seq) is a strict total order, so
  // every correct heap agrees on it). Entries for cancelled/rescheduled
  // events go stale in place and are dropped lazily; live_ counts the
  // real pending events so size() and empty() stay exact.
  mutable std::vector<HeapEntry> heap_;
  std::size_t live_ = 0;
  uint64_t next_seq_ = 1;
};

}  // namespace prr::sim
