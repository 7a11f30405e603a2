// SmallVec<T, N>: a contiguous vector with inline storage for N elements.
//
// Per-node protocol state (active views, parent sets, per-peer links) is
// small — a handful of entries bounded by the view size — but lives on the
// per-message hot path. A std::vector puts even two elements behind a heap
// pointer; SmallVec keeps up to N elements inside the owning object, so the
// common case is one cache line away from the Link/Stream that uses it, and
// only pathological nodes (oversized views during bootstrap) spill to the
// heap. Iteration order is insertion order: fully deterministic.
//
// The 16-byte header (data pointer, 32-bit size and capacity) precedes the
// inline buffer, so it shares a cache line with whatever the owner declared
// just before it: FlatMap's value pointer sits next to its keys, and the
// transport's slab header next to the host's handler.
//
// The interface is the std::vector subset the protocol containers need
// (push/emplace_back, insert/erase at a position, clear/reserve, element
// access, iteration); no allocator or exception-guarantee exotica.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

#include "util/assert.h"

namespace brisa::util {

template <typename T, std::size_t N>
class SmallVec {
  static_assert(N >= 1, "inline capacity must be at least 1");

 public:
  using value_type = T;
  using iterator = T*;
  using const_iterator = const T*;
  using size_type = std::size_t;

  SmallVec() = default;

  SmallVec(const SmallVec& other) { append_range(other.data_, other.size_); }

  SmallVec(SmallVec&& other) noexcept { steal(other); }

  SmallVec& operator=(const SmallVec& other) {
    if (this != &other) {
      clear();
      append_range(other.data_, other.size_);
    }
    return *this;
  }

  SmallVec& operator=(SmallVec&& other) noexcept {
    if (this != &other) {
      destroy_all();
      release_heap();
      data_ = inline_data();
      capacity_ = static_cast<std::uint32_t>(N);
      size_ = 0;
      steal(other);
    }
    return *this;
  }

  ~SmallVec() {
    destroy_all();
    release_heap();
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  /// True while the elements still live in the inline buffer.
  [[nodiscard]] bool is_inline() const { return data_ == inline_data(); }

  [[nodiscard]] T* data() { return data_; }
  [[nodiscard]] const T* data() const { return data_; }

  [[nodiscard]] T& operator[](std::size_t i) {
    BRISA_ASSERT(i < size_);
    return data_[i];
  }
  [[nodiscard]] const T& operator[](std::size_t i) const {
    BRISA_ASSERT(i < size_);
    return data_[i];
  }

  [[nodiscard]] T& front() { return (*this)[0]; }
  [[nodiscard]] const T& front() const { return (*this)[0]; }
  [[nodiscard]] T& back() { return (*this)[size_ - 1]; }
  [[nodiscard]] const T& back() const { return (*this)[size_ - 1]; }

  [[nodiscard]] iterator begin() { return data_; }
  [[nodiscard]] iterator end() { return data_ + size_; }
  [[nodiscard]] const_iterator begin() const { return data_; }
  [[nodiscard]] const_iterator end() const { return data_ + size_; }

  void reserve(std::size_t wanted) {
    if (wanted > capacity_) grow_to(wanted);
  }

  void clear() {
    destroy_all();
    size_ = 0;
  }

  void push_back(const T& value) { emplace_back(value); }
  void push_back(T&& value) { emplace_back(std::move(value)); }

  template <typename... Args>
  T& emplace_back(Args&&... args) {
    if (size_ == capacity_) grow_to(size_ + 1);
    T* slot = data_ + size_;
    new (slot) T(std::forward<Args>(args)...);
    ++size_;
    return *slot;
  }

  void pop_back() {
    BRISA_ASSERT(size_ > 0);
    data_[--size_].~T();
  }

  /// Inserts before `pos`, shifting the tail right. Returns the new element.
  iterator insert(const_iterator pos, T value) {
    const std::size_t index = static_cast<std::size_t>(pos - data_);
    BRISA_ASSERT(index <= size_);
    if (size_ == capacity_) grow_to(size_ + 1);  // invalidates pos; use index
    if (index == size_) {
      new (data_ + size_) T(std::move(value));
    } else {
      // Move-construct the new last element from the old one, then shift.
      new (data_ + size_) T(std::move(data_[size_ - 1]));
      for (std::size_t i = size_ - 1; i > index; --i) {
        data_[i] = std::move(data_[i - 1]);
      }
      data_[index] = std::move(value);
    }
    ++size_;
    return data_ + index;
  }

  /// Removes the element at `pos`, shifting the tail left (order-preserving).
  iterator erase(const_iterator pos) {
    const std::size_t index = static_cast<std::size_t>(pos - data_);
    BRISA_ASSERT(index < size_);
    for (std::size_t i = index + 1; i < size_; ++i) {
      data_[i - 1] = std::move(data_[i]);
    }
    data_[--size_].~T();
    return data_ + index;
  }

  bool operator==(const SmallVec& other) const {
    if (size_ != other.size_) return false;
    for (std::size_t i = 0; i < size_; ++i) {
      if (!(data_[i] == other.data_[i])) return false;
    }
    return true;
  }

 private:
  [[nodiscard]] T* inline_data() {
    return std::launder(reinterpret_cast<T*>(inline_storage_));
  }
  [[nodiscard]] const T* inline_data() const {
    return std::launder(reinterpret_cast<const T*>(inline_storage_));
  }

  void destroy_all() { std::destroy(data_, data_ + size_); }

  void release_heap() {
    if (!is_inline()) {
      ::operator delete(data_, std::align_val_t(alignof(T)));
    }
  }

  void grow_to(std::size_t wanted) {
    std::size_t next = std::size_t{capacity_} * 2;
    if (next < wanted) next = wanted;
    BRISA_ASSERT_MSG(next <= UINT32_MAX, "SmallVec capacity overflow");
    T* fresh = static_cast<T*>(
        ::operator new(next * sizeof(T), std::align_val_t(alignof(T))));
    for (std::size_t i = 0; i < size_; ++i) {
      new (fresh + i) T(std::move(data_[i]));
      data_[i].~T();
    }
    release_heap();
    data_ = fresh;
    capacity_ = static_cast<std::uint32_t>(next);
  }

  void append_range(const T* src, std::size_t count) {
    reserve(count);
    for (std::size_t i = 0; i < count; ++i) new (data_ + i) T(src[i]);
    size_ = static_cast<std::uint32_t>(count);
  }

  /// Move-from for construction/assignment: steals the heap block when the
  /// source spilled, element-moves when it is still inline.
  void steal(SmallVec& other) {
    if (other.is_inline()) {
      for (std::size_t i = 0; i < other.size_; ++i) {
        new (data_ + i) T(std::move(other.data_[i]));
        other.data_[i].~T();
      }
      size_ = other.size_;
      other.size_ = 0;
    } else {
      data_ = other.data_;
      capacity_ = other.capacity_;
      size_ = other.size_;
      other.data_ = other.inline_data();
      other.capacity_ = static_cast<std::uint32_t>(N);
      other.size_ = 0;
    }
  }

  T* data_ = inline_data();
  std::uint32_t size_ = 0;
  std::uint32_t capacity_ = static_cast<std::uint32_t>(N);
  alignas(T) std::byte inline_storage_[N * sizeof(T)];
};

}  // namespace brisa::util
