#pragma once
// Inline-small vector: the first N elements live inside the object, larger
// contents spill to the heap. The per-round hot paths (engine inboxes,
// message payloads, partial-map adjacency, vote scratch) are overwhelmingly
// tiny — a node's inbox holds a handful of messages, a payload a couple of
// words — so keeping them inline removes the allocator from the round loop
// entirely while `clear()` retains spill capacity for the rare big case.
//
// Deliberately a subset of std::vector: contiguous storage, push/emplace,
// resize/reserve/assign, erase-by-iterator, swap. Growth never shrinks:
// clear() keeps a spill buffer for the next refill.
//
// Move semantics are where small-vector implementations classically go
// wrong (a moved-from inline buffer whose elements are destroyed once by
// the move and again by the destructor — the double-destruction bug class
// this header's tests in tests/util_test.cpp pin): after any move, the
// source is always a valid EMPTY vector, never a half-dead one.
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <iterator>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace bdg::util {

template <class T, std::size_t N>
class SmallVec {
  static_assert(N > 0, "SmallVec needs at least one inline slot");

 public:
  using value_type = T;
  using iterator = T*;
  using const_iterator = const T*;

  SmallVec() noexcept : data_(inline_ptr()), size_(0), cap_(N) {}

  SmallVec(std::initializer_list<T> init) : SmallVec() {
    reserve(init.size());
    for (const T& v : init) unchecked_push(v);
  }

  SmallVec(const SmallVec& other) : SmallVec() {
    reserve(other.size_);
    for (std::size_t i = 0; i < other.size_; ++i) unchecked_push(other.data_[i]);
  }

  SmallVec(SmallVec&& other) noexcept : SmallVec() { steal(std::move(other)); }

  SmallVec& operator=(const SmallVec& other) {
    if (this == &other) return *this;
    clear();
    reserve(other.size_);
    for (std::size_t i = 0; i < other.size_; ++i) unchecked_push(other.data_[i]);
    return *this;
  }

  SmallVec& operator=(SmallVec&& other) noexcept {
    if (this == &other) return *this;
    destroy_all();
    release_heap();
    data_ = inline_ptr();
    size_ = 0;
    cap_ = N;
    steal(std::move(other));
    return *this;
  }

  ~SmallVec() {
    destroy_all();
    release_heap();
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return cap_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] bool spilled() const noexcept { return data_ != inline_ptr(); }

  [[nodiscard]] T* data() noexcept { return data_; }
  [[nodiscard]] const T* data() const noexcept { return data_; }
  [[nodiscard]] iterator begin() noexcept { return data_; }
  [[nodiscard]] const_iterator begin() const noexcept { return data_; }
  [[nodiscard]] iterator end() noexcept { return data_ + size_; }
  [[nodiscard]] const_iterator end() const noexcept { return data_ + size_; }

  [[nodiscard]] T& operator[](std::size_t i) { return data_[i]; }
  [[nodiscard]] const T& operator[](std::size_t i) const { return data_[i]; }
  [[nodiscard]] T& front() { return data_[0]; }
  [[nodiscard]] const T& front() const { return data_[0]; }
  [[nodiscard]] T& back() { return data_[size_ - 1]; }
  [[nodiscard]] const T& back() const { return data_[size_ - 1]; }

  void push_back(const T& v) {
    grow_for(size_ + 1);
    unchecked_push(v);
  }
  void push_back(T&& v) {
    grow_for(size_ + 1);
    ::new (static_cast<void*>(data_ + size_)) T(std::move(v));
    ++size_;
  }
  template <class... Args>
  T& emplace_back(Args&&... args) {
    grow_for(size_ + 1);
    T* slot = ::new (static_cast<void*>(data_ + size_))
        T(std::forward<Args>(args)...);
    ++size_;
    return *slot;
  }

  void pop_back() {
    --size_;
    data_[size_].~T();
  }

  /// Destroys the elements but keeps the current buffer (inline or spill),
  /// so refilling in a hot loop never reallocates.
  void clear() noexcept { destroy_all(); }

  void reserve(std::size_t n) { grow_for(n); }

  void resize(std::size_t n) {
    if (n < size_) {
      while (size_ > n) pop_back();
      return;
    }
    grow_for(n);
    while (size_ < n) unchecked_push(T{});
  }

  template <class It>
  void assign(It first, It last) {
    clear();
    if constexpr (std::contiguous_iterator<It> &&
                  std::is_trivially_copyable_v<T> &&
                  std::is_same_v<std::remove_const_t<
                                     std::remove_reference_t<decltype(*first)>>,
                                 T>) {
      const std::size_t n = static_cast<std::size_t>(last - first);
      grow_for(n);
      if (n != 0) std::memcpy(data_, std::to_address(first), n * sizeof(T));
      size_ = static_cast<std::uint32_t>(n);
    } else {
      for (; first != last; ++first) push_back(*first);
    }
  }

  iterator erase(iterator pos) {
    std::move(pos + 1, end(), pos);
    pop_back();
    return pos;
  }

  /// Insert before pos, shifting the tail right; returns the new element.
  iterator insert(iterator pos, const T& v) {
    const std::size_t at = static_cast<std::size_t>(pos - data_);
    grow_for(size_ + 1);
    ::new (static_cast<void*>(data_ + size_)) T{};
    ++size_;
    std::move_backward(data_ + at, data_ + size_ - 1, data_ + size_);
    data_[at] = v;
    return data_ + at;
  }

  void swap(SmallVec& other) noexcept {
    if (this == &other) return;
    if (spilled() && other.spilled()) {
      std::swap(data_, other.data_);
      std::swap(size_, other.size_);
      std::swap(cap_, other.cap_);
      return;
    }
    // At least one side is inline: element-wise swap of the common prefix,
    // then move the longer tail across. Inline storage cannot be swapped by
    // pointer, and a spilled side's heap pointer must not be mixed with the
    // other's inline buffer, so fall back to moves through a temporary.
    SmallVec tmp(std::move(other));
    other = std::move(*this);
    *this = std::move(tmp);
  }

  friend bool operator==(const SmallVec& a, const SmallVec& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  [[nodiscard]] T* inline_ptr() noexcept {
    return std::launder(reinterpret_cast<T*>(inline_storage_));
  }
  [[nodiscard]] const T* inline_ptr() const noexcept {
    return std::launder(reinterpret_cast<const T*>(inline_storage_));
  }

  void unchecked_push(const T& v) {
    ::new (static_cast<void*>(data_ + size_)) T(v);
    ++size_;
  }

  void destroy_all() noexcept {
    for (std::size_t i = 0; i < size_; ++i) data_[i].~T();
    size_ = 0;
  }

  void release_heap() noexcept {
    if (spilled()) ::operator delete(static_cast<void*>(data_));
  }

  /// Take other's contents; other ends up empty (valid, inline). A spilled
  /// buffer transfers by pointer; inline elements are moved one by one and
  /// destroyed in the source exactly once — the source's size is zeroed
  /// BEFORE its destructor can ever run again, which is the invariant the
  /// double-destruction regression test pins.
  void steal(SmallVec&& other) noexcept {
    if (other.spilled()) {
      data_ = other.data_;
      size_ = other.size_;
      cap_ = other.cap_;
      other.data_ = other.inline_ptr();
      other.size_ = 0;
      other.cap_ = N;
      return;
    }
    for (std::size_t i = 0; i < other.size_; ++i) {
      ::new (static_cast<void*>(data_ + i)) T(std::move(other.data_[i]));
      other.data_[i].~T();
    }
    size_ = other.size_;
    other.size_ = 0;
  }

  void grow_for(std::size_t need) {
    if (need <= cap_) return;
    std::size_t ncap = cap_;
    while (ncap < need) ncap *= 2;
    T* nbuf = static_cast<T*>(::operator new(ncap * sizeof(T)));
    for (std::size_t i = 0; i < size_; ++i) {
      ::new (static_cast<void*>(nbuf + i)) T(std::move(data_[i]));
      data_[i].~T();
    }
    release_heap();
    data_ = nbuf;
    cap_ = ncap;
  }

  T* data_;
  std::uint32_t size_;
  std::uint32_t cap_;
  alignas(T) unsigned char inline_storage_[N * sizeof(T)];
};

}  // namespace bdg::util
