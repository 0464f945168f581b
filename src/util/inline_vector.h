// Small vector with N elements of inline storage: stays off the heap up
// to N elements and spills to a heap buffer beyond N like a normal
// vector; moving a spilled vector steals the buffer, moving an inline
// one moves the elements. (Segment::sacks, which must never allocate,
// uses the fixed-capacity net::SackList instead.)
#pragma once

#include <cstddef>
#include <initializer_list>
#include <new>
#include <type_traits>
#include <utility>

namespace prr::util {

template <typename T, std::size_t N>
class InlineVector {
  static_assert(N >= 1, "inline capacity must be at least 1");

 public:
  using value_type = T;
  using iterator = T*;
  using const_iterator = const T*;

  InlineVector() : data_(inline_ptr()) {}
  InlineVector(std::initializer_list<T> init) : InlineVector() {
    for (const T& v : init) push_back(v);
  }
  InlineVector(const InlineVector& other) : InlineVector() {
    reserve(other.size_);
    for (std::size_t i = 0; i < other.size_; ++i) {
      ::new (data_ + i) T(other.data_[i]);
    }
    size_ = other.size_;
  }
  InlineVector(InlineVector&& other) noexcept : InlineVector() {
    steal(other);
  }
  InlineVector& operator=(const InlineVector& other) {
    if (this != &other) {
      clear();
      reserve(other.size_);
      for (std::size_t i = 0; i < other.size_; ++i) {
        ::new (data_ + i) T(other.data_[i]);
      }
      size_ = other.size_;
    }
    return *this;
  }
  InlineVector& operator=(InlineVector&& other) noexcept {
    if (this != &other) {
      release();
      data_ = inline_ptr();
      capacity_ = N;
      size_ = 0;
      steal(other);
    }
    return *this;
  }
  ~InlineVector() { release(); }

  T& operator[](std::size_t i) { return data_[i]; }
  const T& operator[](std::size_t i) const { return data_[i]; }
  T& front() { return data_[0]; }
  const T& front() const { return data_[0]; }
  T& back() { return data_[size_ - 1]; }
  const T& back() const { return data_[size_ - 1]; }

  iterator begin() { return data_; }
  iterator end() { return data_ + size_; }
  const_iterator begin() const { return data_; }
  const_iterator end() const { return data_ + size_; }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::size_t capacity() const { return capacity_; }
  // True while the elements live in the inline buffer (no heap in play).
  bool is_inline() const { return data_ == inline_ptr(); }

  void push_back(const T& v) { emplace_back(v); }
  void push_back(T&& v) { emplace_back(std::move(v)); }
  template <typename... CtorArgs>
  T& emplace_back(CtorArgs&&... args) {
    if (size_ == capacity_) grow(capacity_ * 2);
    T* p = ::new (data_ + size_) T(std::forward<CtorArgs>(args)...);
    ++size_;
    return *p;
  }
  void pop_back() {
    --size_;
    data_[size_].~T();
  }
  void clear() {
    for (std::size_t i = 0; i < size_; ++i) data_[i].~T();
    size_ = 0;
  }
  template <typename It>
  void assign(It first, It last) {
    clear();
    for (; first != last; ++first) push_back(*first);
  }
  void reserve(std::size_t n) {
    if (n > capacity_) grow(n);
  }

  friend bool operator==(const InlineVector& a, const InlineVector& b) {
    if (a.size_ != b.size_) return false;
    for (std::size_t i = 0; i < a.size_; ++i) {
      if (!(a.data_[i] == b.data_[i])) return false;
    }
    return true;
  }

 private:
  T* inline_ptr() { return reinterpret_cast<T*>(storage_); }
  const T* inline_ptr() const { return reinterpret_cast<const T*>(storage_); }

  void grow(std::size_t n) {
    if (n < capacity_ * 2) n = capacity_ * 2;
    T* fresh = static_cast<T*>(::operator new(n * sizeof(T)));
    for (std::size_t i = 0; i < size_; ++i) {
      ::new (fresh + i) T(std::move(data_[i]));
      data_[i].~T();
    }
    if (!is_inline()) ::operator delete(static_cast<void*>(data_));
    data_ = fresh;
    capacity_ = n;
  }

  // Destroys elements and frees any heap buffer; leaves members stale
  // (callers reset them).
  void release() {
    clear();
    if (!is_inline()) ::operator delete(static_cast<void*>(data_));
  }

  // Precondition: *this is empty and inline. Leaves `other` empty.
  void steal(InlineVector& other) noexcept {
    static_assert(std::is_nothrow_move_constructible_v<T>);
    if (other.is_inline()) {
      for (std::size_t i = 0; i < other.size_; ++i) {
        ::new (data_ + i) T(std::move(other.data_[i]));
        other.data_[i].~T();
      }
      size_ = other.size_;
      other.size_ = 0;
    } else {
      data_ = other.data_;
      size_ = other.size_;
      capacity_ = other.capacity_;
      other.data_ = other.inline_ptr();
      other.size_ = 0;
      other.capacity_ = N;
    }
  }

  T* data_;
  std::size_t size_ = 0;
  std::size_t capacity_ = N;
  alignas(T) unsigned char storage_[N * sizeof(T)];
};

}  // namespace prr::util
