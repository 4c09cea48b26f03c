// A first-in, first-out queue for per-connection and per-port state: TCP
// send queues, RPC frame streams and backlogs, port queues and shapers.
//
// libstdc++'s deque allocates a 64-byte map and a 504-byte node in its
// constructor, so every connection paid ~590 B of heap for a send queue
// that is empty most of its life. A Fifo is one power-of-two ring behind a
// 24-byte header: it allocates nothing until its first push, doubles when
// full, and keeps its buffer once drained, so a queue that has reached its
// working depth stops allocating.
//
// An iterator is a (FIFO, position) pair and finds its element afresh on
// every dereference. It therefore stays on its element across push_back,
// even a push that grows the ring, and a range-for's cached end() stays
// where the loop started, so the loop visits only the elements it began
// with. A pointer or reference into the FIFO does not survive growth: the
// ring moves every element into the new buffer. pop_front and clear
// invalidate both, as they do in a deque.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>

#include "sim/check.h"

namespace acdc::sim {

template <typename T>
class Fifo {
 public:
  class iterator {
   public:
    iterator(Fifo* fifo, std::uint32_t pos) : fifo_(fifo), pos_(pos) {}
    T& operator*() const { return fifo_->at(pos_); }
    iterator& operator++() {
      ++pos_;
      return *this;
    }
    bool operator==(const iterator&) const = default;

   private:
    Fifo* fifo_;
    std::uint32_t pos_;  // from the front
  };

  Fifo() = default;
  ~Fifo() {
    clear();
    if (buf_ != nullptr) std::allocator<T>().deallocate(buf_, capacity_);
  }
  // Owners hold their queue in place; nothing copies or moves one.
  Fifo(const Fifo&) = delete;
  Fifo& operator=(const Fifo&) = delete;

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  std::size_t capacity() const { return capacity_; }

  T& front() {
    assert(size_ > 0);
    return buf_[head_];
  }
  T& back() {
    assert(size_ > 0);
    return at(size_ - 1);
  }

  void push_back(const T& value) { emplace_back(value); }
  void push_back(T&& value) { emplace_back(std::move(value)); }

  template <typename... Args>
  T& emplace_back(Args&&... args) {
    if (size_ == capacity_) {
      return grow_and_emplace(std::forward<Args>(args)...);
    }
    T* slot = std::construct_at(&at(size_), std::forward<Args>(args)...);
    ++size_;
    return *slot;
  }

  void pop_front() {
    assert(size_ > 0);
    std::destroy_at(buf_ + head_);
    head_ = (head_ + 1) & (capacity_ - 1);
    --size_;
  }

  // Destroys every element and keeps the buffer.
  void clear() {
    if constexpr (!std::is_trivially_destructible_v<T>) {
      for (std::uint32_t i = 0; i < size_; ++i) std::destroy_at(&at(i));
    }
    head_ = 0;
    size_ = 0;
  }

  iterator begin() { return iterator(this, 0); }
  iterator end() { return iterator(this, size_); }

 private:
  static constexpr std::uint32_t kMinCapacity = 4;
  static constexpr std::uint32_t kMaxCapacity = std::uint32_t{1} << 31;

  // The element `pos` places behind the front; the slot one past the back
  // when pos == size_ < capacity_.
  T& at(std::uint32_t pos) { return buf_[(head_ + pos) & (capacity_ - 1)]; }

  // Builds the new element in the doubled buffer before the old ones move,
  // so an argument that refers into this FIFO is read while still alive.
  template <typename... Args>
  T& grow_and_emplace(Args&&... args) {
    ACDC_CHECK(capacity_ < kMaxCapacity,
               "fifo: cannot grow past %u elements",
               static_cast<unsigned>(capacity_));
    const std::uint32_t capacity =
        capacity_ == 0 ? kMinCapacity : 2 * capacity_;
    T* buf = std::allocator<T>().allocate(capacity);
    T* slot = std::construct_at(buf + size_, std::forward<Args>(args)...);
    for (std::uint32_t i = 0; i < size_; ++i) {
      std::construct_at(buf + i, std::move(at(i)));
      std::destroy_at(&at(i));
    }
    if (buf_ != nullptr) std::allocator<T>().deallocate(buf_, capacity_);
    buf_ = buf;
    head_ = 0;
    capacity_ = capacity;
    ++size_;
    return *slot;
  }

  T* buf_ = nullptr;
  std::uint32_t head_ = 0;
  std::uint32_t size_ = 0;
  std::uint32_t capacity_ = 0;  // 0 or a power of two
};

}  // namespace acdc::sim
