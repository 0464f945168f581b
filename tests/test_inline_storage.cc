// Unit tests for the inline-storage building blocks behind the
// allocation-free hot path: InlineFunction (small-buffer callable) and
// RingQueue (power-of-two ring used by Link's drop-tail queue). Covers
// the spill boundaries, move semantics, and destructor counts the
// simulator relies on.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <type_traits>

#include "util/inline_function.h"
#include "util/ring_queue.h"

namespace prr::util {
namespace {

// ---------------------------------------------------------------------
// InlineFunction

TEST(InlineFunction, SmallCallableStoresInline) {
  int hits = 0;
  auto small = [&hits] { ++hits; };
  static_assert(InlineFunction<void(), 48>::stores_inline_v<decltype(small)>);
  InlineFunction<void(), 48> f(small);
  ASSERT_TRUE(f);
  f();
  f();
  EXPECT_EQ(hits, 2);
}

TEST(InlineFunction, OversizedCallableSpillsToHeapAndStillWorks) {
  // 64 bytes of captured state cannot fit the 48-byte buffer.
  struct Big {
    char pad[64];
  };
  Big big{};
  big.pad[0] = 42;
  int out = 0;
  auto fat = [big, &out] { out = big.pad[0]; };
  static_assert(
      !InlineFunction<void(), 48>::stores_inline_v<decltype(fat)>);
  InlineFunction<void(), 48> f(std::move(fat));
  ASSERT_TRUE(f);
  f();
  EXPECT_EQ(out, 42);
}

TEST(InlineFunction, SpillBoundaryIsExact) {
  struct Fits {
    char pad[48];
    void operator()() const {}
  };
  struct Spills {
    char pad[49];
    void operator()() const {}
  };
  static_assert(InlineFunction<void(), 48>::stores_inline_v<Fits>);
  static_assert(!InlineFunction<void(), 48>::stores_inline_v<Spills>);
  // Both still work.
  InlineFunction<void(), 48> a(Fits{});
  InlineFunction<void(), 48> b(Spills{});
  a();
  b();
}

struct DtorCounter {
  int* count;
  explicit DtorCounter(int* c) : count(c) {}
  DtorCounter(DtorCounter&& o) noexcept : count(o.count) { o.count = nullptr; }
  DtorCounter(const DtorCounter& o) = default;
  ~DtorCounter() {
    if (count != nullptr) ++*count;
  }
  void operator()() const {}
};

TEST(InlineFunction, DestroysCapturedStateExactlyOnce) {
  int destroyed = 0;
  {
    InlineFunction<void(), 48> f{DtorCounter(&destroyed)};
    EXPECT_EQ(destroyed, 0);
  }
  EXPECT_EQ(destroyed, 1);
}

TEST(InlineFunction, MoveTransfersStateWithoutDoubleDestroy) {
  int destroyed = 0;
  {
    InlineFunction<void(), 48> f{DtorCounter(&destroyed)};
    InlineFunction<void(), 48> g(std::move(f));
    EXPECT_FALSE(f);  // NOLINT(bugprone-use-after-move): tested contract
    EXPECT_TRUE(g);
    g();
  }
  EXPECT_EQ(destroyed, 1);
}

TEST(InlineFunction, MoveAssignDestroysPreviousTarget) {
  int first = 0, second = 0;
  {
    InlineFunction<void(), 48> f{DtorCounter(&first)};
    f = InlineFunction<void(), 48>(DtorCounter(&second));
    EXPECT_EQ(first, 1);
    EXPECT_EQ(second, 0);
  }
  EXPECT_EQ(second, 1);
}

TEST(InlineFunction, ResetAndNullptrClear) {
  InlineFunction<void(), 48> f([] {});
  ASSERT_TRUE(f);
  f.reset();
  EXPECT_FALSE(f);
  f = [] {};
  ASSERT_TRUE(f);
  f = nullptr;
  EXPECT_FALSE(f);
}

TEST(InlineFunction, ReturnValuesAndArguments) {
  InlineFunction<int(int, int), 48> add([](int a, int b) { return a + b; });
  EXPECT_EQ(add(2, 3), 5);
}

// Captures like the simulator's event callbacks (`this`, an index, a
// Time) are trivially copyable: they relocate by memcpy and are never
// destroyed through the ops table. Their values must survive both.
TEST(InlineFunction, TriviallyCopyableCaptureSurvivesMoveAndMoveAssign) {
  uint64_t out = 0;
  const uint64_t a = 0x0123456789abcdefULL;
  const uint32_t b = 7;
  const double c = 0.5;
  auto fn = [&out, a, b, c] {
    out = a + b + static_cast<uint64_t>(c * 4);
  };
  static_assert(std::is_trivially_copyable_v<decltype(fn)>);
  InlineFunction<void(), 48> f(fn);
  InlineFunction<void(), 48> g(std::move(f));
  EXPECT_FALSE(f);  // NOLINT(bugprone-use-after-move): tested contract
  g();
  EXPECT_EQ(out, a + 9);
  out = 0;
  InlineFunction<void(), 48> h([&out] { out = 1; });
  h = std::move(g);
  EXPECT_FALSE(g);  // NOLINT(bugprone-use-after-move): tested contract
  h();
  EXPECT_EQ(out, a + 9);
  h = nullptr;
  EXPECT_FALSE(h);
}

TEST(InlineFunction, NonTrivialCaptureIsDestroyedOnceAcrossRelocations) {
  static_assert(!std::is_trivially_copyable_v<DtorCounter>);
  int destroyed = 0;
  {
    InlineFunction<void(), 48> f{DtorCounter(&destroyed)};
    InlineFunction<void(), 48> g(std::move(f));
    InlineFunction<void(), 48> h([] {});
    h = std::move(g);
    h();
    EXPECT_EQ(destroyed, 0);
    InlineFunction<void(), 48> k(std::move(h));
    k.reset();
    EXPECT_EQ(destroyed, 1);
  }
  EXPECT_EQ(destroyed, 1);
}

TEST(InlineFunction, HeapSpilledCallableSurvivesMoveAndIsDestroyedOnce) {
  struct BigCounter {
    DtorCounter counter;
    char pad[64];
    int* out;
    void operator()() const { *out = pad[0]; }
  };
  static_assert(!InlineFunction<void(), 48>::stores_inline_v<BigCounter>);
  int destroyed = 0;
  int out = 0;
  {
    BigCounter big{DtorCounter(&destroyed), {}, &out};
    big.pad[0] = 42;
    InlineFunction<void(), 48> f(std::move(big));
    InlineFunction<void(), 48> g(std::move(f));
    InlineFunction<void(), 48> h;
    h = std::move(g);
    h();
    EXPECT_EQ(out, 42);
    EXPECT_EQ(destroyed, 0);
  }
  EXPECT_EQ(destroyed, 1);
}

// ---------------------------------------------------------------------
// RingQueue

TEST(RingQueue, FifoOrderAcrossWrap) {
  RingQueue<int> q;
  // Interleave pushes/pops so the head walks around the ring.
  int next_push = 0, next_pop = 0;
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 3; ++i) q.push_back(next_push++);
    for (int i = 0; i < 2; ++i) EXPECT_EQ(q.pop_front(), next_pop++);
  }
  while (!q.empty()) EXPECT_EQ(q.pop_front(), next_pop++);
  EXPECT_EQ(next_pop, next_push);
}

TEST(RingQueue, GrowPreservesOrder) {
  RingQueue<int> q;
  for (int i = 0; i < 5; ++i) q.push_back(i);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(q.pop_front(), i);
  // Head is now offset; force growth from an offset head.
  for (int i = 0; i < 100; ++i) q.push_back(i);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(q.pop_front(), i);
  EXPECT_TRUE(q.empty());
}

TEST(RingQueue, DropBackRemovesNewest) {
  RingQueue<int> q;
  for (int i = 0; i < 4; ++i) q.push_back(i);
  q.drop_back();
  EXPECT_EQ(q.size(), 3u);
  EXPECT_EQ(q.pop_front(), 0);
  EXPECT_EQ(q.pop_front(), 1);
  EXPECT_EQ(q.pop_front(), 2);
  EXPECT_TRUE(q.empty());
}

TEST(RingQueue, PopMovesElementOut) {
  RingQueue<std::unique_ptr<int>> q;
  q.push_back(std::make_unique<int>(5));
  std::unique_ptr<int> p = q.pop_front();
  ASSERT_TRUE(p);
  EXPECT_EQ(*p, 5);
  EXPECT_TRUE(q.empty());
}

}  // namespace
}  // namespace prr::util
