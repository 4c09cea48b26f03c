#include "sim/event_queue.h"

#include <bit>
#include <utility>

#include "sim/check.h"

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

EventQueue::~EventQueue() {
  // Fired and reaped slots hold no action, so this reaches exactly the
  // events that never ran.
  for (Slot& slot : slots_) slot.action.discard();
}

std::uint32_t EventQueue::acquire_slot() {
  if (free_slot_ != kNone) {
    const std::uint32_t index = free_slot_;
    free_slot_ = slots_[index].next;
    return index;
  }
  slots_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void EventQueue::release_slot(std::uint32_t index) {
  Slot& slot = slots_[index];
  // Empty after a fire (take_next moved the action out); a cancelled
  // event's action is discarded here.
  slot.action.discard();
  slot.armed = false;
  slot.cancelled = false;
  slot.tie = Tie::kUnkeyed;
  // Bumping the generation here invalidates every EventId already handed out
  // for this slot, so cancels arriving after the fire are no-ops.
  ++slot.generation;
  if (slot.generation == 0) slot.generation = 1;  // keep ids nonzero
  slot.next = free_slot_;
  free_slot_ = index;
}

bool EventQueue::tie_earlier(std::uint32_t a, std::uint32_t b) {
  Slot& slot_a = slots_[a];
  Slot& slot_b = slots_[b];
  const bool keyed_a = slot_a.tie != Tie::kUnkeyed;
  if (keyed_a != (slot_b.tie != Tie::kUnkeyed)) return keyed_a;
  if (keyed_a) {
    // Computes a lazy key once; tie_key() only reads its own closure.
    const auto key = [](Slot& slot) {
      if (slot.tie == Tie::kLazy) {
        slot.key = slot.action.tie_key();
        slot.tie = Tie::kKeyed;
      }
      return slot.key;
    };
    const std::uint64_t key_a = key(slot_a);
    const std::uint64_t key_b = key(slot_b);
    if (key_a != key_b) return key_a < key_b;
  }
  return slot_a.seq < slot_b.seq;
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
    const std::size_t first = 4 * i + 1;
    if (first >= n) break;
    std::size_t best = first;
    if (first + 4 <= n) {
      // A full sibling group: the earliest time by selects. Slots are read
      // only when two children share it.
      const Entry* c = heap_.data() + first;
      const bool right01 = c[1].at < c[0].at;
      const bool right23 = c[3].at < c[2].at;
      const Time t01 = right01 ? c[1].at : c[0].at;
      const Time t23 = right23 ? c[3].at : c[2].at;
      const bool right = t23 < t01;
      best = right ? first + 2 + right23 : first + right01;
      const Time t = right ? t23 : t01;
      if ((c[0].at == t) + (c[1].at == t) + (c[2].at == t) + (c[3].at == t) >
          1) {
        for (std::size_t k = 0; k < 4; ++k) {
          if (first + k != best && c[k].at == t &&
              tie_earlier(c[k].slot, heap_[best].slot)) {
            best = first + k;
          }
        }
      }
    } else {
      for (std::size_t c = first + 1; c < n; ++c) {
        if (earlier(heap_[c], heap_[best])) best = c;
      }
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

void EventQueue::link_far(std::uint32_t index) {
  Slot& slot = slots_[index];
  const std::int64_t bucket = bucket_of(slot.at);
  if (bucket < lap_end_) {
    const auto pos = static_cast<std::size_t>(bucket & kLapMask);
    const std::uint64_t bit = std::uint64_t{1} << (pos % 64);
    std::uint64_t& word = occupied_[pos / 64];
    slot.next = (word & bit) != 0 ? bucket_head_[pos] : kNone;
    bucket_head_[pos] = index;
    word |= bit;
    occupied_words_ |= std::uint64_t{1} << (pos / 64);
  } else {
    slot.next = overflow_head_;
    overflow_head_ = index;
    if (bucket < overflow_min_) overflow_min_ = bucket;
  }
}

bool EventQueue::reap_far(std::uint32_t index) {
  if (!slots_[index].cancelled) return false;
  release_slot(index);
  --far_size_;
  return true;
}

EventId EventQueue::schedule(Time at, EventAction&& action) {
  return insert(at, kUnkeyedTieKey, Tie::kUnkeyed, next_seq_++,
                std::move(action));
}

EventId EventQueue::schedule(Time at, std::uint64_t key,
                             EventAction&& action) {
  return schedule(at, key, next_seq_++, std::move(action));
}

EventId EventQueue::schedule(Time at, std::uint64_t key, std::uint64_t tie_seq,
                             EventAction&& action) {
  return insert(at, key, key == kUnkeyedTieKey ? Tie::kUnkeyed : Tie::kKeyed,
                tie_seq, std::move(action));
}

EventId EventQueue::schedule_keyed(Time at, EventAction&& action) {
  ACDC_CHECK(action.has_tie_key(),
             "schedule_keyed: the action has no tie_key() (at=%lld)",
             static_cast<long long>(at));
  return insert(at, kUnkeyedTieKey, Tie::kLazy, next_seq_++,
                std::move(action));
}

EventId EventQueue::insert(Time at, std::uint64_t key, Tie tie,
                           std::uint64_t seq, EventAction&& action) {
  const std::uint32_t index = acquire_slot();
  Slot& slot = slots_[index];
  slot.action = std::move(action);
  slot.at = at;
  slot.key = key;
  slot.seq = seq;
  slot.tie = tie;
  slot.armed = true;
  const EventId id = pack_id(slot.generation, index);
  ++live_count_;
  if (bucket_of(at) <= cur_bucket_) {
    heap_.push_back(Entry{at, index});
    sift_up(heap_.size() - 1);
  } else {
    link_far(index);
    ++far_size_;
  }
  return id;
}

void EventQueue::cancel(EventId id) {
  if (id == kInvalidEventId) return;
  const std::uint32_t index = id_slot(id);
  if (index >= slots_.size()) return;
  Slot& slot = slots_[index];
  if (!slot.armed || slot.cancelled || slot.generation != id_generation(id)) {
    return;  // already fired, already cancelled, or a recycled slot
  }
  ACDC_CHECK(live_count_ > 0, "cancel: armed slot %u in a queue with no "
             "live event", index);
  slot.cancelled = true;
  --live_count_;
  // No comparison has read a key that was never computed, and a tombstone
  // never pops, so any fixed key keeps the heap valid. Fixing it here means
  // tie_key() never runs on a cancelled action, whose state may be gone.
  if (slot.tie == Tie::kLazy) {
    slot.key = 0;
    slot.tie = Tie::kKeyed;
  }
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
  std::uint32_t index = overflow_head_;
  overflow_head_ = kNone;
  while (index != kNone) {
    const std::uint32_t next = slots_[index].next;
    if (!reap_far(index)) link_far(index);
    index = next;
  }
}

void EventQueue::pull_next_bucket() {
  if (occupied_words_ == 0) {
    spread_overflow();
    return;
  }
  // Only buckets after cur_bucket_ are ever occupied, so the lowest set bit
  // is the earliest far bucket. Its events move into the (empty) heap.
  const auto w = static_cast<std::size_t>(std::countr_zero(occupied_words_));
  const auto pos =
      w * 64 + static_cast<std::size_t>(std::countr_zero(occupied_[w]));
  occupied_[w] &= occupied_[w] - 1;
  if (occupied_[w] == 0) occupied_words_ &= occupied_words_ - 1;
  cur_bucket_ = lap_end_ - static_cast<std::int64_t>(kBuckets) +
                static_cast<std::int64_t>(pos);
  std::uint32_t index = bucket_head_[pos];
  while (index != kNone) {
    const std::uint32_t next = slots_[index].next;
    if (!reap_far(index)) {
      heap_.push_back(Entry{slots_[index].at, index});
      --far_size_;
    }
    index = next;
  }
  // Floyd's bottom-up heap construction over the moved bucket.
  if (heap_.size() > 1) {
    for (std::size_t i = (heap_.size() - 2) / 4 + 1; i-- > 0;) sift_down(i);
  }
}

bool EventQueue::settle_slow() {
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

bool EventQueue::take_next(Time deadline, Next& next) {
  if (live_count_ == 0 || !settle() || heap_[0].at > deadline) return false;
  const Entry top = heap_[0];
  Slot& slot = slots_[top.slot];
  next.at = top.at;
  next.seq = slot.seq;
  next.unkeyed = slot.tie == Tie::kUnkeyed;
  next.action = std::move(slot.action);
  release_slot(top.slot);
  pop_heap_top();
  --live_count_;
  ++executed_;
  return true;
}

EventQueue::Next EventQueue::take_next() {
  Next next;
  const bool popped = take_next(std::numeric_limits<Time>::max(), next);
  ACDC_CHECK(popped, "take_next() on an empty event queue");
  return next;
}

}  // namespace acdc::sim
