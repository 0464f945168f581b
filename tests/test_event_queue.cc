#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

namespace prr::sim {
namespace {

using namespace prr::sim::literals;

TEST(EventQueue, FiresInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(30_ms, [&] { order.push_back(3); });
  q.schedule(10_ms, [&] { order.push_back(1); });
  q.schedule(20_ms, [&] { order.push_back(2); });
  while (!q.empty()) q.run_next();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, EqualTimesAreFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule(5_ms, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.run_next();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  bool fired = false;
  EventId id = q.schedule(1_ms, [&] { fired = true; });
  q.cancel(id);
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelOneOfMany) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(1_ms, [&] { order.push_back(1); });
  EventId id = q.schedule(2_ms, [&] { order.push_back(2); });
  q.schedule(3_ms, [&] { order.push_back(3); });
  q.cancel(id);
  while (!q.empty()) q.run_next();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(EventQueue, CancelInvalidIsNoop) {
  EventQueue q;
  q.cancel(kInvalidEventId);
  q.cancel(9999);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, NextTimeReflectsEarliest) {
  EventQueue q;
  EXPECT_TRUE(q.next_time().is_infinite());
  q.schedule(7_ms, [] {});
  q.schedule(3_ms, [] {});
  EXPECT_EQ(q.next_time().ms(), 3);
}

TEST(EventQueue, RunNextReturnsEventTime) {
  EventQueue q;
  q.schedule(42_ms, [] {});
  EXPECT_EQ(q.run_next().ms(), 42);
}

TEST(EventQueue, EventsCanScheduleMoreEvents) {
  EventQueue q;
  int count = 0;
  std::function<void()> chain = [&] {
    if (++count < 5) q.schedule(Time::milliseconds(count), chain);
  };
  q.schedule(0_ms, chain);
  while (!q.empty()) q.run_next();
  EXPECT_EQ(count, 5);
}

TEST(EventQueue, SizeExcludesCancelled) {
  EventQueue q;
  q.schedule(1_ms, [] {});
  EventId id = q.schedule(2_ms, [] {});
  EXPECT_EQ(q.size(), 2u);
  q.cancel(id);
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, CancellingFiredIdRetainsNothing) {
  // Regression: cancel() of an already-fired id used to park the id in
  // the cancellation set forever, growing memory without bound in timer-
  // heavy runs and skewing size() downward.
  EventQueue q;
  EventId id = q.schedule(1_ms, [] {});
  q.run_next();  // fires `id`
  EXPECT_EQ(q.size(), 0u);
  q.cancel(id);  // must be a true no-op
  EXPECT_EQ(q.size(), 0u);
  EXPECT_TRUE(q.empty());

  // size() stays exact with live events around the stale cancel.
  q.schedule(2_ms, [] {});
  q.cancel(id);  // still fired, still a no-op
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.run_next().ms(), 2);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, CancellingUnissuedAndRepeatIdsRetainsNothing) {
  EventQueue q;
  // Ids the queue never issued (bogus generations/indices) must not be
  // recorded either: they would otherwise suppress a future event when
  // the slot is used.
  for (EventId bogus = 1; bogus < 100; ++bogus) q.cancel(bogus);
  bool fired = false;
  q.schedule(1_ms, [&] { fired = true; });
  EXPECT_EQ(q.size(), 1u);
  q.run_next();
  EXPECT_TRUE(fired);

  // Double-cancel of a pending id: second is a no-op, size() stays exact.
  EventId id = q.schedule(2_ms, [] {});
  q.schedule(3_ms, [] {});
  q.cancel(id);
  q.cancel(id);
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.run_next().ms(), 3);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, StaleIdOnRecycledSlotIsNoop) {
  // The first event's slot is recycled by the second schedule. The old
  // id must not be able to cancel the new occupant: the generation tag
  // makes it a true no-op.
  EventQueue q;
  EventId old_id = q.schedule(1_ms, [] {});
  q.run_next();  // fires; slot goes back on the free list
  bool fired = false;
  EventId new_id = q.schedule(2_ms, [&] { fired = true; });
  ASSERT_NE(old_id, new_id);  // same slot, new generation
  q.cancel(old_id);           // stale id, recycled slot: no-op
  EXPECT_EQ(q.size(), 1u);
  q.run_next();
  EXPECT_TRUE(fired);

  // Same via cancel-driven recycling.
  EventId a = q.schedule(3_ms, [] {});
  q.cancel(a);
  bool b_fired = false;
  EventId b = q.schedule(4_ms, [&] { b_fired = true; });
  q.cancel(a);  // stale again
  EXPECT_EQ(q.size(), 1u);
  q.run_next();
  EXPECT_TRUE(b_fired);
  // Stale reschedule is equally inert.
  EXPECT_EQ(q.reschedule(b, 9_ms), kInvalidEventId);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, RescheduleMovesEventAndInvalidatesOldId) {
  EventQueue q;
  std::vector<int> order;
  EventId id = q.schedule(10_ms, [&] { order.push_back(1); });
  q.schedule(5_ms, [&] { order.push_back(2); });
  EventId moved = q.reschedule(id, 1_ms);
  ASSERT_NE(moved, kInvalidEventId);
  q.cancel(id);  // old id is dead; must not cancel the moved event
  EXPECT_EQ(q.size(), 2u);
  while (!q.empty()) q.run_next();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueue, RescheduleKeepsFifoParityWithCancelPlusSchedule) {
  // A rescheduled event consumes a fresh sequence number, so among
  // equal-time events it fires exactly where a cancel+schedule pair
  // would have placed it: after events scheduled before the reschedule.
  EventQueue q;
  std::vector<int> order;
  EventId id = q.schedule(9_ms, [&] { order.push_back(0); });
  q.schedule(5_ms, [&] { order.push_back(1); });
  q.reschedule(id, 5_ms);
  q.schedule(5_ms, [&] { order.push_back(2); });
  while (!q.empty()) q.run_next();
  EXPECT_EQ(order, (std::vector<int>{1, 0, 2}));
}

// Differential test: the slot-map queue against a naive unordered-vector
// model, through a long randomized schedule/cancel/reschedule/run
// workload including stale ids, equal-time groups, delays spanning
// 0 .. 2^55 ns, and batch delivery's pre-drawn seqs (take_seq, then
// schedule_with_seq / reschedule_with_seq later — i.e. inserts that
// arrive out of global seq order). next_time() and next_is_after() are
// checked against the model after every step.
TEST(EventQueue, RandomizedDifferentialAgainstNaiveModel) {
  struct ModelEvent {
    int64_t at_ns;
    uint64_t seq;
    int tag;
  };
  // Mostly near, sometimes very far, often ties (0 or a repeated delay).
  static constexpr int64_t kDelays[] = {
      0, 0, 1, 1, 7, 63, 64, 65, 1000, 1000, 4095, 4096,
      1'000'000, 262'144, 1'000'000'000, 40'000'000'000,
      (int64_t{1} << 40), (int64_t{1} << 55)};
  std::mt19937_64 rng(20110501);
  for (int round = 0; round < 20; ++round) {
    EventQueue q;
    std::vector<ModelEvent> model;  // unordered; popped by (at, seq)
    uint64_t next_seq = 1;          // mirrors the queue's FIFO counter
    int64_t now_ns = 0;             // time of the last fired event
    // Live (queue id, model seq) pairs plus retired ids for stale probes.
    std::vector<std::pair<EventId, uint64_t>> live;
    std::vector<EventId> stale;
    // Seqs drawn with take_seq() and not yet used.
    std::vector<uint64_t> stashed;
    std::vector<int> queue_fired, model_fired;
    int next_tag = 0;

    auto draw_at = [&]() {
      // Half the time an absolute time in a small window, so equal-time
      // groups form; otherwise now + a delay from the wide spread.
      if (rng() % 2 == 0) {
        return static_cast<int64_t>(rng() % 16) * 1'000'000;
      }
      return now_ns + kDelays[rng() % std::size(kDelays)];
    };
    auto model_min = [&]() {
      std::size_t best = 0;
      for (std::size_t i = 1; i < model.size(); ++i) {
        if (model[i].at_ns < model[best].at_ns ||
            (model[i].at_ns == model[best].at_ns &&
             model[i].seq < model[best].seq)) {
          best = i;
        }
      }
      return best;
    };
    auto model_pop = [&]() {
      const std::size_t best = model_min();
      ModelEvent e = model[best];
      model.erase(model.begin() + static_cast<std::ptrdiff_t>(best));
      return e;
    };
    auto schedule = [&](int64_t at_ns, uint64_t seq, bool pre_drawn) {
      const int tag = next_tag++;
      auto fn = [&queue_fired, tag] { queue_fired.push_back(tag); };
      const EventId id =
          pre_drawn ? q.schedule_with_seq(Time::nanoseconds(at_ns), seq, fn)
                    : q.schedule(Time::nanoseconds(at_ns), fn);
      model.push_back({at_ns, seq, tag});
      live.emplace_back(id, seq);
    };
    auto reschedule = [&](std::size_t i, int64_t at_ns, uint64_t seq,
                          bool pre_drawn) {
      const EventId moved =
          pre_drawn
              ? q.reschedule_with_seq(live[i].first, Time::nanoseconds(at_ns),
                                      seq)
              : q.reschedule(live[i].first, Time::nanoseconds(at_ns));
      ASSERT_NE(moved, kInvalidEventId);
      stale.push_back(live[i].first);
      for (auto& e : model) {
        if (e.seq == live[i].second) {
          e.at_ns = at_ns;
          e.seq = seq;
        }
      }
      live[i] = {moved, seq};
    };

    for (int step = 0; step < 1000; ++step) {
      const uint64_t action = rng() % 100;
      if (action < 8) {
        // Pre-draw a seq; a later step materializes it.
        EXPECT_EQ(q.take_seq(), next_seq);
        stashed.push_back(next_seq++);
      } else if (action < 16 && !stashed.empty()) {
        // Materialize a pre-drawn seq as a schedule or a reschedule.
        const std::size_t k = rng() % stashed.size();
        const uint64_t seq = stashed[k];
        stashed.erase(stashed.begin() + static_cast<std::ptrdiff_t>(k));
        if (rng() % 2 == 0 || live.empty()) {
          schedule(draw_at(), seq, /*pre_drawn=*/true);
        } else {
          reschedule(rng() % live.size(), draw_at(), seq, /*pre_drawn=*/true);
        }
      } else if (action < 45 || live.empty()) {
        schedule(draw_at(), next_seq++, /*pre_drawn=*/false);
      } else if (action < 58) {
        // Cancel a live event.
        const std::size_t i = rng() % live.size();
        q.cancel(live[i].first);
        stale.push_back(live[i].first);
        const uint64_t seq = live[i].second;
        std::erase_if(model, [seq](const ModelEvent& e) {
          return e.seq == seq;
        });
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
      } else if (action < 70) {
        // Reschedule a live event: same tag, new time, fresh seq.
        reschedule(rng() % live.size(), draw_at(), next_seq++,
                   /*pre_drawn=*/false);
      } else if (action < 80 && !stale.empty()) {
        // Poke with stale ids: every mutator must no-op.
        const EventId id = stale[rng() % stale.size()];
        q.cancel(id);
        EXPECT_EQ(q.reschedule(id, Time::milliseconds(1)), kInvalidEventId);
        EXPECT_EQ(q.reschedule_with_seq(id, Time::milliseconds(1), 1),
                  kInvalidEventId);
      } else if (!q.empty()) {
        // Run the earliest event; drop it from the live set.
        const Time t = q.run_next();
        const ModelEvent e = model_pop();
        model_fired.push_back(e.tag);
        EXPECT_EQ(t.ns(), e.at_ns);
        now_ns = e.at_ns;
        std::erase_if(live, [&](const auto& p) { return p.second == e.seq; });
      }
      if (HasFatalFailure()) return;
      ASSERT_EQ(q.size(), model.size());
      ASSERT_EQ(q.empty(), model.empty());
      if (model.empty()) {
        ASSERT_TRUE(q.next_time().is_infinite());
        ASSERT_TRUE(q.next_is_after(Time::nanoseconds(now_ns), next_seq));
        continue;
      }
      const ModelEvent& head = model[model_min()];
      ASSERT_EQ(q.next_time().ns(), head.at_ns);
      // Probe next_is_after() at and around the head key, where the
      // strict (at, seq) comparison flips.
      for (const int64_t dt : {-1, 0, 1}) {
        for (const int64_t ds : {-1, 0, 1}) {
          const int64_t at = head.at_ns + dt;
          const uint64_t seq = head.seq + static_cast<uint64_t>(ds);
          const bool want =
              head.at_ns != at ? head.at_ns > at : head.seq > seq;
          ASSERT_EQ(q.next_is_after(Time::nanoseconds(at), seq), want)
              << "probe (" << at << ", " << seq << ")";
        }
      }
    }
    // Drain.
    while (!q.empty()) {
      const Time t = q.run_next();
      const ModelEvent e = model_pop();
      model_fired.push_back(e.tag);
      EXPECT_EQ(t.ns(), e.at_ns);
    }
    EXPECT_EQ(queue_fired, model_fired);
  }
}

// The sweep's heap averages a couple of entries, so the sifts that cross
// several levels of the 4-ary heap — a hole moving up past full sibling
// groups on insert, the former tail sinking from the root on pop, and
// compaction's rebuild — run only here. For each depth from 1 to 512
// live entries: ramp the population up, churn at that depth with heavy
// equal-time ties (four distinct times), cancels, reschedules and
// pre-drawn seqs used out of order, then drain; every pop is checked
// against an ordered-set model keyed (at, seq).
TEST(EventQueue, RandomizedDifferentialDeepHeap) {
  struct Live {
    EventId id;
    int64_t at_ns;
    uint64_t seq;
    int tag;
  };
  using Key = std::tuple<int64_t, uint64_t, int>;  // (at, seq, tag)
  std::mt19937_64 rng(6937);
  for (const std::size_t depth :
       {1, 2, 3, 4, 5, 6, 20, 21, 22, 85, 86, 100, 341, 342, 512}) {
    EventQueue q;
    std::set<Key> model;
    std::vector<Live> live;
    std::vector<uint64_t> stashed;  // seqs drawn by take_seq(), unused
    std::vector<int> fired;
    uint64_t next_seq = 1;
    int next_tag = 0;
    int64_t now_ns = 0;

    auto draw_at = [&] {
      return now_ns + static_cast<int64_t>(rng() % 4) * 1000;
    };
    auto draw_seq = [&]() -> uint64_t {
      // A third of the time, an older pre-drawn seq: an insert that
      // arrives out of global seq order.
      if (!stashed.empty() && rng() % 3 == 0) {
        const std::size_t k = rng() % stashed.size();
        const uint64_t seq = stashed[k];
        stashed.erase(stashed.begin() + static_cast<std::ptrdiff_t>(k));
        return seq;
      }
      return 0;  // none: use the queue's own counter
    };
    auto schedule = [&] {
      const int tag = next_tag++;
      const int64_t at = draw_at();
      auto fn = [&fired, tag] { fired.push_back(tag); };
      uint64_t seq = draw_seq();
      EventId id;
      if (seq != 0) {
        id = q.schedule_with_seq(Time::nanoseconds(at), seq, fn);
      } else {
        seq = next_seq++;
        id = q.schedule(Time::nanoseconds(at), fn);
      }
      model.insert({at, seq, tag});
      live.push_back({id, at, seq, tag});
    };
    auto reschedule = [&](std::size_t i) {
      Live& e = live[i];
      const int64_t at = draw_at();
      uint64_t seq = draw_seq();
      EventId moved;
      if (seq != 0) {
        moved = q.reschedule_with_seq(e.id, Time::nanoseconds(at), seq);
      } else {
        seq = next_seq++;
        moved = q.reschedule(e.id, Time::nanoseconds(at));
      }
      ASSERT_NE(moved, kInvalidEventId);
      model.erase({e.at_ns, e.seq, e.tag});
      model.insert({at, seq, e.tag});
      e = {moved, at, seq, e.tag};
    };
    auto cancel = [&](std::size_t i) {
      q.cancel(live[i].id);
      model.erase({live[i].at_ns, live[i].seq, live[i].tag});
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
    };
    auto pop = [&] {
      const Key head = *model.begin();
      model.erase(model.begin());
      const Time t = q.run_next();
      ASSERT_EQ(t.ns(), std::get<0>(head));
      ASSERT_FALSE(fired.empty());
      ASSERT_EQ(fired.back(), std::get<2>(head));
      now_ns = t.ns();
      std::erase_if(live, [&](const Live& e) {
        return e.tag == std::get<2>(head);
      });
    };
    auto check = [&] {
      ASSERT_EQ(q.size(), model.size());
      if (model.empty()) {
        ASSERT_TRUE(q.next_time().is_infinite());
        return;
      }
      ASSERT_EQ(q.next_time().ns(), std::get<0>(*model.begin()));
    };

    while (live.size() < depth) schedule();
    check();
    for (std::size_t step = 0; step < 8 * depth + 64; ++step) {
      switch (rng() % 6) {
        case 0:  // fire one, refill to depth
          pop();
          schedule();
          break;
        case 1:  // cancel one, refill to depth
          cancel(rng() % live.size());
          schedule();
          break;
        case 2:
        case 3:
          reschedule(rng() % live.size());
          break;
        case 4:
          EXPECT_EQ(q.take_seq(), next_seq);
          stashed.push_back(next_seq++);
          break;
        default:  // a burst at the head: fire several, then refill
          for (int k = 0; k < 3 && !live.empty(); ++k) pop();
          while (live.size() < depth) schedule();
          break;
      }
      if (HasFatalFailure()) return;
      check();
      if (HasFatalFailure()) return;
    }
    while (!model.empty()) {
      pop();
      if (HasFatalFailure()) return;
    }
    EXPECT_TRUE(q.empty()) << "depth " << depth;
  }
}

}  // namespace
}  // namespace prr::sim
