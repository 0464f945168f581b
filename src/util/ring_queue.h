// Fixed-layout FIFO over a power-of-two ring of default-constructed
// slots: Link's drop-tail queue and the scoreboard's segment records.
// Unlike std::deque (which allocates and frees ~512-byte blocks as the
// queue breathes), a ring at steady depth performs zero allocations —
// slots are moved out on pop and reset to a default-constructed T,
// releasing whatever the element owned. Random-access iterators support
// the scoreboard's binary searches; they are invalidated by growth,
// like a vector's.
#pragma once

#include <cstddef>
#include <iterator>
#include <type_traits>
#include <utility>
#include <vector>

namespace prr::util {

template <typename T>
class RingQueue {
 public:
  template <typename Q, typename V>
  class Iter {
   public:
    using iterator_category = std::random_access_iterator_tag;
    using value_type = T;
    using difference_type = std::ptrdiff_t;
    using pointer = V*;
    using reference = V&;

    Iter() = default;
    Iter(Q* q, std::size_t i) : q_(q), i_(i) {}
    // iterator -> const_iterator conversion.
    operator Iter<const Q, const V>() const { return {q_, i_}; }

    reference operator*() const { return (*q_)[i_]; }
    pointer operator->() const { return &(*q_)[i_]; }
    reference operator[](difference_type n) const {
      return (*q_)[i_ + static_cast<std::size_t>(n)];
    }

    Iter& operator++() { ++i_; return *this; }
    Iter operator++(int) { Iter t = *this; ++i_; return t; }
    Iter& operator--() { --i_; return *this; }
    Iter operator--(int) { Iter t = *this; --i_; return t; }
    Iter& operator+=(difference_type n) {
      i_ = static_cast<std::size_t>(static_cast<difference_type>(i_) + n);
      return *this;
    }
    Iter& operator-=(difference_type n) { return *this += -n; }
    friend Iter operator+(Iter it, difference_type n) { return it += n; }
    friend Iter operator+(difference_type n, Iter it) { return it += n; }
    friend Iter operator-(Iter it, difference_type n) { return it -= n; }
    friend difference_type operator-(const Iter& a, const Iter& b) {
      return static_cast<difference_type>(a.i_) -
             static_cast<difference_type>(b.i_);
    }
    friend bool operator==(const Iter& a, const Iter& b) {
      return a.i_ == b.i_;
    }
    friend auto operator<=>(const Iter& a, const Iter& b) {
      return a.i_ <=> b.i_;
    }

   private:
    Q* q_ = nullptr;
    std::size_t i_ = 0;  // logical index from the front
  };

  using iterator = Iter<RingQueue, T>;
  using const_iterator = Iter<const RingQueue, const T>;
  using reverse_iterator = std::reverse_iterator<iterator>;
  using const_reverse_iterator = std::reverse_iterator<const_iterator>;

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::size_t capacity() const { return buf_.size(); }

  void push_back(T v) {
    if (size_ == buf_.size()) grow();
    buf_[wrap(head_ + size_)] = std::move(v);
    ++size_;
  }

  T& operator[](std::size_t i) { return buf_[wrap(head_ + i)]; }
  const T& operator[](std::size_t i) const { return buf_[wrap(head_ + i)]; }

  iterator begin() { return {this, 0}; }
  iterator end() { return {this, size_}; }
  const_iterator begin() const { return {this, 0}; }
  const_iterator end() const { return {this, size_}; }
  reverse_iterator rbegin() { return reverse_iterator(end()); }
  reverse_iterator rend() { return reverse_iterator(begin()); }
  const_reverse_iterator rbegin() const {
    return const_reverse_iterator(end());
  }
  const_reverse_iterator rend() const {
    return const_reverse_iterator(begin());
  }

  T& front() { return buf_[head_]; }
  const T& front() const { return buf_[head_]; }
  T& back() { return buf_[wrap(head_ + size_ - 1)]; }
  const T& back() const { return buf_[wrap(head_ + size_ - 1)]; }

  // Moves the head element out and resets its slot.
  T pop_front() {
    T out = std::move(buf_[head_]);
    buf_[head_] = T{};
    head_ = wrap(head_ + 1);
    --size_;
    return out;
  }

  // Destroys the newest element (drop-tail).
  void drop_back() {
    buf_[wrap(head_ + size_ - 1)] = T{};
    --size_;
  }

  // O(1) when T owns nothing; otherwise releases each element.
  void clear() {
    if constexpr (std::is_trivially_destructible_v<T>) {
      size_ = 0;
    } else {
      while (size_ > 0) drop_back();
    }
  }

 private:
  std::size_t wrap(std::size_t i) const { return i & (buf_.size() - 1); }

  void grow() {
    const std::size_t fresh_cap = buf_.empty() ? 8 : buf_.size() * 2;
    std::vector<T> fresh(fresh_cap);
    for (std::size_t i = 0; i < size_; ++i) {
      fresh[i] = std::move(buf_[wrap(head_ + i)]);
    }
    buf_ = std::move(fresh);
    head_ = 0;
  }

  std::vector<T> buf_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace prr::util
