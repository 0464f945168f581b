#include "sim/event_queue.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace prr::sim {

namespace {

constexpr auto earlier = [](const auto& a, const auto& b) {
  if (a.at != b.at) return a.at < b.at;
  return a.seq < b.seq;
};

}  // namespace

void EventQueue::sift_down(std::size_t hole, const HeapEntry e) const {
  const std::size_t n = heap_.size();
  for (;;) {
    const std::size_t first = hole * 4 + 1;
    if (first >= n) break;
    std::size_t best = first;
    const std::size_t last = first + 4 < n ? first + 4 : n;
    for (std::size_t c = first + 1; c < last; ++c) {
      if (earlier(heap_[c], heap_[best])) best = c;
    }
    if (!earlier(heap_[best], e)) break;
    heap_[hole] = heap_[best];
    hole = best;
  }
  heap_[hole] = e;
}

void EventQueue::pop_head() const {
  // The root is vacated: sift the former tail down from there, without
  // storing it at the root first.
  const HeapEntry tail = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0, tail);
}

void EventQueue::rebuild_heap() const {
  if (heap_.size() < 2) return;
  for (std::size_t i = (heap_.size() - 2) / 4 + 1; i-- > 0;) {
    sift_down(i, heap_[i]);
  }
}

EventQueue::Slot* EventQueue::live_slot(EventId id) {
  const uint32_t index = id_index(id);
  if (index >= slots_.size()) return nullptr;
  Slot& s = slots_[index];
  if (!s.live || s.gen != id_gen(id)) return nullptr;
  return &s;
}

uint32_t EventQueue::acquire_slot() {
  if (free_head_ != kNilIndex) {
    const uint32_t index = free_head_;
    free_head_ = slots_[index].next_free;
    return index;
  }
  const uint32_t index = static_cast<uint32_t>(slots_.size());
  slots_.emplace_back();
  return index;
}

void EventQueue::push_entry(Time at, uint64_t seq, uint32_t slot,
                            uint32_t gen) {
  // Reschedule-heavy patterns (a timer re-armed on every ACK) leave
  // stale entries that are only dropped lazily when their old time is
  // reached. If they ever dominate, rebuild the heap from the live
  // entries in place: pop order is the strict total order (at, seq), so
  // compaction cannot change what fires when.
  if (heap_.size() >= 64 && heap_.size() > 4 * live_) {
    std::erase_if(heap_, [this](const HeapEntry& e) {
      return entry_stale(e);
    });
    rebuild_heap();
  }
  // Insert through a hole: parents later than the new entry move down
  // one level, and the entry itself is written once, at its final index
  // (never stored at the tail and then reloaded to compare).
  const HeapEntry e{at, seq, slot, gen};
  std::size_t hole = heap_.size();
  if (hole == 0 || !earlier(e, heap_[(hole - 1) / 4])) {
    heap_.push_back(e);
    return;
  }
  heap_.push_back(heap_[(hole - 1) / 4]);
  hole = (hole - 1) / 4;
  while (hole > 0) {
    const std::size_t parent = (hole - 1) / 4;
    if (!earlier(e, heap_[parent])) break;
    heap_[hole] = heap_[parent];
    hole = parent;
  }
  heap_[hole] = e;
}

EventId EventQueue::schedule(Time at, EventCallback fn) {
  return schedule_with_seq(at, next_seq_++, std::move(fn));
}

EventId EventQueue::schedule_with_seq(Time at, uint64_t seq,
                                      EventCallback fn) {
  const uint32_t index = acquire_slot();
  Slot& s = slots_[index];
  s.fn = std::move(fn);
  s.live = true;
  push_entry(at, seq, index, s.gen);
  ++live_;
  return make_id(s.gen, index);
}

EventId EventQueue::reschedule(EventId id, Time at) {
  Slot* s = live_slot(id);
  if (s == nullptr) return kInvalidEventId;
  // Re-sequencing under a fresh generation makes the old heap entry
  // stale in place; the callback and the slot are untouched.
  bump_gen(*s);
  push_entry(at, next_seq_++, id_index(id), s->gen);
  return make_id(s->gen, id_index(id));
}

EventId EventQueue::reschedule_with_seq(EventId id, Time at, uint64_t seq) {
  Slot* s = live_slot(id);
  if (s == nullptr) return kInvalidEventId;
  bump_gen(*s);
  push_entry(at, seq, id_index(id), s->gen);
  return make_id(s->gen, id_index(id));
}

void EventQueue::cancel(EventId id) {
  Slot* s = live_slot(id);
  if (s == nullptr) return;  // fired/cancelled/never-issued: true no-op
  s->fn.reset();  // release captures now, not at lazy heap pop
  s->live = false;
  bump_gen(*s);
  s->next_free = free_head_;
  free_head_ = id_index(id);
  --live_;
  // With nothing pending, every remaining heap entry is stale — drop
  // them all now (capacity is kept) rather than waiting for lazy pops
  // that may never come.
  if (live_ == 0) heap_.clear();
}

void EventQueue::clear() {
  for (uint32_t i = 0; i < slots_.size(); ++i) {
    Slot& s = slots_[i];
    if (!s.live) continue;
    s.fn.reset();
    s.live = false;
    bump_gen(s);
    s.next_free = free_head_;
    free_head_ = i;
  }
  heap_.clear();
  live_ = 0;
  next_seq_ = 1;
}

void EventQueue::drop_stale_head() const {
  while (!heap_.empty() && entry_stale(heap_.front())) {
    pop_head();
  }
}

Time EventQueue::next_time() const {
  if (live_ == 0) return Time::infinite();
  drop_stale_head();
  return heap_.empty() ? Time::infinite() : heap_.front().at;
}

bool EventQueue::next_is_after(Time at, uint64_t seq) const {
  if (live_ == 0) return true;
  drop_stale_head();
  if (heap_.empty()) return true;
  const HeapEntry& head = heap_.front();
  if (head.at != at) return head.at > at;
  return head.seq > seq;
}

Time EventQueue::run_next() {
  drop_stale_head();
  assert(!heap_.empty());
  const HeapEntry head = heap_.front();
  pop_head();
  const uint32_t slot = head.slot;

  Slot& s = slots_[slot];
  // Move the callback out before releasing the slot: the callback may
  // schedule new events, which can recycle this slot or grow slots_.
  EventCallback fn = std::move(s.fn);
  s.live = false;
  bump_gen(s);
  s.next_free = free_head_;
  free_head_ = slot;
  --live_;
  if (live_ == 0) heap_.clear();

  fn();
  return head.at;
}

}  // namespace prr::sim
