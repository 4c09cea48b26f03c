// The discrete-event simulation driver.
//
// A Simulator owns the virtual clock and the event queue. Components keep a
// non-owning pointer to the Simulator that outlives them (the Simulator is
// always constructed first in a scenario and destroyed last).
#pragma once

#include <cstdint>
#include <limits>

#include "sim/event_queue.h"
#include "sim/time.h"

namespace acdc::sim {

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  Time now() const { return now_; }

  // Schedules `action` to run `delay` from now (delay >= 0). EventAction is
  // small-buffer optimized: callables up to kInlineFunctionBytes schedule
  // without touching the heap. Scheduling into the past aborts in every
  // build (ACDC_CHECK): the calendar's ordering depends on causality.
  EventId schedule(Time delay, EventAction action);

  // Schedules `action` at absolute time `at` (at >= now()).
  EventId schedule_at(Time at, EventAction action);

  // Keyed variants: same-time events order by `key` before insertion order
  // (see EventQueue). Packet deliveries use a content-derived key so the
  // serial and sharded engines order same-tick arrivals identically.
  EventId schedule_keyed(Time delay, std::uint64_t key, EventAction action);
  EventId schedule_at_keyed(Time at, std::uint64_t key, EventAction action);

  // Keyed variant with an explicit tie sequence (see mail_tie_seq): the
  // parallel executor schedules drained cross-shard mail with
  // (src_shard, mailbox_seq) as the tie-break so (at, key) collisions order
  // identically at any thread count and drain timing.
  EventId schedule_at_keyed_seq(Time at, std::uint64_t key,
                                std::uint64_t tie_seq, EventAction action);

  void cancel(EventId id) { queue_.cancel(id); }

  // Runs events until the queue drains.
  void run();

  // Runs events with timestamp <= deadline; the clock ends at
  // max(now, deadline) so periodic samplers see a full final interval.
  void run_until(Time deadline);

  // Runs at most one event. Returns false when the queue is empty.
  bool step();

  // ---- Epoch hooks for the parallel executor (sim/parallel) ----
  // Runs every event with timestamp strictly below `bound`; the clock stays
  // at the last executed event (it does NOT jump to bound), so a later
  // schedule_at from a cross-shard mailbox can still land anywhere in
  // [now, bound).
  void run_before(Time bound);
  // Timestamp of the earliest pending event; kNoTime when the queue is
  // empty. The shard executor uses this to compute the global safe window.
  // It may move a far bucket into the near heap (see EventQueue), so only
  // the thread that runs this simulator may call it.
  Time next_event_time() { return queue_.next_time(); }
  // Moves the clock forward without running anything (end-of-window catch-up
  // so periodic samplers and run_until callers see a full final interval).
  void advance_to(Time t) {
    if (now_ < t) now_ = t;
  }

  std::uint64_t executed_events() const { return queue_.executed_count(); }

 private:
  friend class DeadlineTimer;

  // For DeadlineTimer: schedules an unkeyed event with an insertion
  // sequence number taken earlier from queue_.take_seq().
  EventId schedule_at_seq(Time at, std::uint64_t seq, EventAction action);

  Time now_ = 0;
  EventQueue queue_;
};

}  // namespace acdc::sim
