// Small-buffer-optimized move-only callable: the event queue's
// replacement for std::function. Callables whose captures fit in the
// inline buffer (and are nothrow-move-constructible) are stored in
// place, so constructing, moving and destroying an event callback in
// the simulator hot path performs no heap allocation; oversized or
// throwing-move callables fall back to a single heap allocation,
// exactly like std::function. Invocation is one indirect call either
// way. An inline callable that is trivially copyable and trivially
// destructible (a lambda capturing `this` and an index, say) is
// relocated by copying the buffer and destroyed by forgetting it, so
// moving and resetting it make no indirect calls.
#pragma once

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace prr::util {

template <typename Sig, std::size_t N = 48>
class InlineFunction;

template <typename R, typename... Args, std::size_t N>
class InlineFunction<R(Args...), N> {
 public:
  // True when callable F would be stored in the inline buffer (the
  // zero-allocation path). Exposed so tests can pin the spill boundary.
  template <typename F>
  static constexpr bool stores_inline_v =
      sizeof(F) <= N && alignof(F) <= alignof(std::max_align_t) &&
      std::is_nothrow_move_constructible_v<F>;

  InlineFunction() = default;
  InlineFunction(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)

  template <typename F,
            typename D = std::decay_t<F>,
            typename = std::enable_if_t<
                !std::is_same_v<D, InlineFunction> &&
                std::is_invocable_r_v<R, D&, Args...>>>
  InlineFunction(F&& f) {  // NOLINT(google-explicit-constructor)
    emplace(std::forward<F>(f));
  }

  InlineFunction(InlineFunction&& other) noexcept { move_from(other); }
  InlineFunction& operator=(InlineFunction&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }
  InlineFunction(const InlineFunction&) = delete;
  InlineFunction& operator=(const InlineFunction&) = delete;
  ~InlineFunction() { reset(); }

  template <typename F>
  InlineFunction& operator=(F&& f) {
    reset();
    emplace(std::forward<F>(f));
    return *this;
  }
  InlineFunction& operator=(std::nullptr_t) {
    reset();
    return *this;
  }

  R operator()(Args... args) {
    return ops_->invoke(&buf_, std::forward<Args>(args)...);
  }

  explicit operator bool() const { return ops_ != nullptr; }

  void reset() {
    if (ops_ != nullptr) {
      if (!ops_->trivial) ops_->destroy(&buf_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    R (*invoke)(void*, Args&&...);
    void (*move_destroy)(void* src, void* dst) noexcept;
    void (*destroy)(void*) noexcept;
    // Relocate by memcpy, destroy by doing nothing.
    bool trivial;
  };

  template <typename F>
  struct InlineOps {
    static R invoke(void* p, Args&&... args) {
      return (*static_cast<F*>(p))(std::forward<Args>(args)...);
    }
    static void move_destroy(void* src, void* dst) noexcept {
      F* s = static_cast<F*>(src);
      ::new (dst) F(std::move(*s));
      s->~F();
    }
    static void destroy(void* p) noexcept { static_cast<F*>(p)->~F(); }
    static constexpr Ops ops{&invoke, &move_destroy, &destroy,
                             std::is_trivially_copyable_v<F> &&
                                 std::is_trivially_destructible_v<F>};
  };

  template <typename F>
  struct HeapOps {
    static F*& slot(void* p) { return *static_cast<F**>(p); }
    static R invoke(void* p, Args&&... args) {
      return (*slot(p))(std::forward<Args>(args)...);
    }
    static void move_destroy(void* src, void* dst) noexcept {
      *static_cast<F**>(dst) = slot(src);
    }
    static void destroy(void* p) noexcept { delete slot(p); }
    static constexpr Ops ops{&invoke, &move_destroy, &destroy, false};
  };

  template <typename F>
  void emplace(F&& f) {
    using D = std::decay_t<F>;
    if constexpr (stores_inline_v<D>) {
      ::new (static_cast<void*>(&buf_)) D(std::forward<F>(f));
      ops_ = &InlineOps<D>::ops;
    } else {
      static_assert(sizeof(D*) <= N);
      *reinterpret_cast<D**>(&buf_) = new D(std::forward<F>(f));
      ops_ = &HeapOps<D>::ops;
    }
  }

  void move_from(InlineFunction& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      if (ops_->trivial) {
        std::memcpy(&buf_, &other.buf_, N);
      } else {
        ops_->move_destroy(&other.buf_, &buf_);
      }
      other.ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char buf_[N];
  const Ops* ops_ = nullptr;
};

}  // namespace prr::util
