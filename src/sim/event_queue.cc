#include "sim/event_queue.h"

#include <bit>
#include <cassert>
#include <utility>

namespace acdc::sim {

namespace {

constexpr EventId pack_id(std::uint32_t generation, std::uint32_t slot) {
  return (static_cast<EventId>(generation) << 32) | slot;
}

constexpr std::uint32_t id_generation(EventId id) {
  return static_cast<std::uint32_t>(id >> 32);
}

constexpr std::uint32_t id_slot(EventId id) {
  return static_cast<std::uint32_t>(id);
}

}  // namespace

std::uint32_t EventQueue::acquire_slot() {
  if (free_slot_ != kNone) {
    const std::uint32_t index = free_slot_;
    free_slot_ = slots_[index].next_free;
    slots_[index].next_free = kNone;
    return index;
  }
  slots_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void EventQueue::release_slot(std::uint32_t index) {
  Slot& slot = slots_[index];
  slot.action.reset();
  slot.armed = false;
  slot.cancelled = false;
  // Bumping the generation here invalidates every EventId already handed out
  // for this slot, so cancels arriving after the fire are no-ops.
  ++slot.generation;
  if (slot.generation == 0) slot.generation = 1;  // keep ids nonzero
  slot.next_free = free_slot_;
  free_slot_ = index;
}

void EventQueue::sift_up(std::size_t i) {
  Entry moving = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!earlier(moving, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = moving;
}

void EventQueue::sift_down(std::size_t i) {
  const std::size_t n = heap_.size();
  Entry moving = heap_[i];
  for (;;) {
    const std::size_t first_child = 4 * i + 1;
    if (first_child >= n) break;
    std::size_t best = first_child;
    const std::size_t last_child =
        first_child + 4 <= n ? first_child + 4 : n;
    for (std::size_t c = first_child + 1; c < last_child; ++c) {
      if (earlier(heap_[c], heap_[best])) best = c;
    }
    if (!earlier(heap_[best], moving)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = moving;
}

void EventQueue::pop_heap_top() {
  heap_[0] = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0);
}

void EventQueue::link_far(std::uint32_t node) {
  Entry& n = far_[node];
  const std::int64_t bucket = bucket_of(n.at);
  if (bucket < lap_end_) {
    const auto pos = static_cast<std::size_t>(bucket & kLapMask);
    n.next = bucket_head_[pos];
    bucket_head_[pos] = node;
    occupied_[pos / 64] |= std::uint64_t{1} << (pos % 64);
  } else {
    n.next = overflow_head_;
    overflow_head_ = node;
    if (bucket < overflow_min_) overflow_min_ = bucket;
  }
}

void EventQueue::free_far(std::uint32_t node) {
  far_[node].next = free_node_;
  free_node_ = node;
  --far_size_;
}

bool EventQueue::reap_far(std::uint32_t node) {
  const std::uint32_t slot = far_[node].slot;
  if (!slots_[slot].cancelled) return false;
  release_slot(slot);
  free_far(node);
  return true;
}

EventId EventQueue::schedule(Time at, EventAction action) {
  return schedule(at, kUnkeyedTieKey, std::move(action));
}

EventId EventQueue::schedule(Time at, std::uint64_t key, EventAction action) {
  return schedule(at, key, next_seq_++, std::move(action));
}

EventId EventQueue::schedule(Time at, std::uint64_t key, std::uint64_t tie_seq,
                             EventAction action) {
  const std::uint32_t index = acquire_slot();
  Slot& slot = slots_[index];
  slot.action = std::move(action);
  slot.armed = true;
  ++live_count_;
  if (bucket_of(at) <= cur_bucket_) {
    heap_.push_back(Entry{at, key, tie_seq, index});
    sift_up(heap_.size() - 1);
  } else {
    std::uint32_t node = free_node_;
    if (node != kNone) {
      free_node_ = far_[node].next;
    } else {
      node = static_cast<std::uint32_t>(far_.size());
      far_.emplace_back();
    }
    far_[node] = Entry{at, key, tie_seq, index};
    link_far(node);
    ++far_size_;
  }
  return pack_id(slot.generation, index);
}

void EventQueue::cancel(EventId id) {
  if (id == kInvalidEventId) return;
  const std::uint32_t index = id_slot(id);
  if (index >= slots_.size()) return;
  Slot& slot = slots_[index];
  if (!slot.armed || slot.cancelled || slot.generation != id_generation(id)) {
    return;  // already fired, already cancelled, or a recycled slot
  }
  slot.cancelled = true;
  assert(live_count_ > 0);
  --live_count_;
}

void EventQueue::spread_overflow() {
  // The current lap is exhausted: jump to the lap of the earliest overflow
  // bucket (skipping any empty laps between) and sort the overflow into
  // that lap's calendar or back onto the overflow list. overflow_min_ may
  // be a cancelled entry's bucket; the recomputed minimum is exact.
  const std::int64_t lap_start = overflow_min_ & ~kLapMask;
  cur_bucket_ = lap_start - 1;
  lap_end_ = lap_start + static_cast<std::int64_t>(kBuckets);
  overflow_min_ = kNoBucket;
  std::uint32_t node = overflow_head_;
  overflow_head_ = kNone;
  while (node != kNone) {
    const std::uint32_t next = far_[node].next;
    if (!reap_far(node)) link_far(node);
    node = next;
  }
}

void EventQueue::pull_next_bucket() {
  std::size_t pos = kBuckets;
  for (std::size_t w = 0; w < occupied_.size(); ++w) {
    if (occupied_[w] != 0) {
      pos = w * 64 + static_cast<std::size_t>(std::countr_zero(occupied_[w]));
      break;
    }
  }
  if (pos == kBuckets) {
    spread_overflow();
    return;
  }
  // Only buckets after cur_bucket_ are ever occupied, so the lowest set bit
  // is the earliest far bucket. Its events move into the (empty) heap.
  occupied_[pos / 64] &= ~(std::uint64_t{1} << (pos % 64));
  cur_bucket_ = lap_end_ - static_cast<std::int64_t>(kBuckets) +
                static_cast<std::int64_t>(pos);
  std::uint32_t node = bucket_head_[pos];
  bucket_head_[pos] = kNone;
  while (node != kNone) {
    const std::uint32_t next = far_[node].next;
    if (!reap_far(node)) {
      heap_.push_back(far_[node]);
      free_far(node);
    }
    node = next;
  }
  // Floyd's bottom-up heap construction over the moved bucket.
  if (heap_.size() > 1) {
    for (std::size_t i = (heap_.size() - 2) / 4 + 1; i-- > 0;) sift_down(i);
  }
}

bool EventQueue::settle() {
  for (;;) {
    while (!heap_.empty()) {
      const std::uint32_t index = heap_[0].slot;
      if (!slots_[index].cancelled) return true;
      release_slot(index);
      pop_heap_top();
    }
    if (far_size_ == 0) return false;
    pull_next_bucket();
  }
}

Time EventQueue::next_time() {
  if (live_count_ == 0 || !settle()) return kNoTime;
  return heap_[0].at;
}

EventQueue::Next EventQueue::take_next() {
  [[maybe_unused]] const bool live = settle();
  assert(live);
  const Entry top = heap_[0];
  Slot& slot = slots_[top.slot];
  Next next{top.at, top.key, top.seq, std::move(slot.action)};
  release_slot(top.slot);
  pop_heap_top();
  --live_count_;
  ++executed_;
  return next;
}

}  // namespace acdc::sim
