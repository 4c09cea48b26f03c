// Many one-shot timers of one owner behind a single event-queue position.
//
// A user group arms one think timer per session; as one event each, every
// thinking user would hold a 96-byte event slot for seconds. A TimerHeap
// keeps its timers in a private min-heap of 24-byte {at, seq, tag} entries
// instead, and only the earliest of them waits in the event queue.
//
// The heap is bit-identical to one schedule() per timer: arm() takes the
// insertion sequence number schedule() would have used, and the event
// queue only ever holds the earliest entry, at exactly its own (at, seq).
// When that entry fires, the next one enters the queue at its own (at,
// seq) before the handler runs, so every timer pops where its own event
// would have and every other event keeps its place. An arm touches the
// queue only when its entry becomes the earliest: the pending event is
// cancelled (a tombstone) and the new minimum scheduled. Each timer still
// fires as one event, so Simulator::executed_events() is unchanged too.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/simulator.h"

namespace acdc::sim {

class TimerHeap {
 public:
  // Runs `on_fire(owner, tag)` when a timer armed with `tag` expires. A
  // function pointer plus an owner pointer, as in DeadlineTimer, keeps the
  // pending event's closure to one pointer.
  using Handler = void (*)(void* owner, std::uint64_t tag);

  TimerHeap(Simulator* sim, void* owner, Handler on_fire)
      : sim_(sim), owner_(owner), on_fire_(on_fire) {}
  // Pending timers never fire.
  ~TimerHeap() { sim_->cancel(pending_); }

  // The pending event points back at the heap, so it never moves.
  TimerHeap(const TimerHeap&) = delete;
  TimerHeap& operator=(const TimerHeap&) = delete;

  // Arms one more timer to fire `delay` (>= 0) from now with `tag`.
  void arm(Time delay, std::uint64_t tag);

  // Room for `n` pending timers without regrowing the heap.
  void reserve(std::size_t n) { heap_.reserve(n); }

 private:
  struct Entry {
    Time at = 0;
    std::uint64_t seq = 0;  // taken from the queue at arm time
    std::uint64_t tag = 0;
  };

  // The std heap algorithms keep the largest element in front; this order
  // makes it the earliest (at, seq).
  static bool later(const Entry& a, const Entry& b) {
    return a.at != b.at ? a.at > b.at : a.seq > b.seq;
  }

  void schedule_earliest();
  void fire();

  Simulator* sim_;
  void* owner_;
  Handler on_fire_;
  // A heap under later(): front() is the earliest timer.
  std::vector<Entry> heap_;
  // The queued event of heap_.front(); kInvalidEventId while heap_ is empty.
  EventId pending_ = kInvalidEventId;
};

}  // namespace acdc::sim
