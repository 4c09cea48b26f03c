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
  // Keyed by the action's own tie_key(), which the queue calls only if
  // another keyed event shares the timestamp (see
  // EventQueue::schedule_keyed).
  EventId schedule_keyed(Time delay, EventAction action);

  // Keyed variant with an explicit tie sequence (see mail_tie_seq): the
  // parallel executor schedules drained cross-shard mail with
  // (src_shard, mailbox_seq) as the tie-break so (at, key) collisions order
  // identically at any thread count and drain timing.
  EventId schedule_at_keyed_seq(Time at, std::uint64_t key,
                                std::uint64_t tie_seq, EventAction action);

  void cancel(EventId id) { queue_.cancel(id); }

  // Runs events until the queue drains; the clock stays at the last event
  // run, and the position at the end of its tick. Drivers run to a
  // deadline; this is the drain loop of the engine and port tests
  // (SimulatorTest, DeadlineTimerTest including its cancel-and-schedule
  // reference, TimerHeapTest including its one-event-per-timer reference,
  // ReservedEventTest, PortDeathTest, FaultInjectorDeathTest,
  // SwitchTest, PacketPoolTest.PeerlessPortReturnsPacketsToThePool and
  // ObsIntegrationTest.PerHopEventsConservePackets).
  void run();

  // Runs events with timestamp <= deadline; the clock ends at
  // max(now, deadline) so periodic samplers see a full final interval, and
  // the pop-order position at the end of the deadline's tick (see
  // ReservedEvent).
  void run_until(Time deadline);

  // Runs at most one event. Returns false when the queue is empty.
  bool step();

  // ---- Hooks for the parallel executor (sim/parallel) ----
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
  // Moves the clock forward without running anything (end-of-round catch-up
  // so periodic samplers and run_until callers see a full final interval).
  // Like run_until, it leaves the position at the end of t's tick, so it
  // may only be called once no event at or before t is pending.
  void advance_to(Time t) {
    if (now_ <= t) end_tick(t);
  }

  std::uint64_t executed_events() const { return queue_.executed_count(); }

  // Events waiting to run, cancelled ones excluded. Pins how many queue
  // positions a component holds (TimerHeapTest and
  // UserGroupTest.ThinkTimersHoldOneQueuePosition).
  std::size_t pending_events() const { return queue_.size(); }

 private:
  friend class DeadlineTimer;
  friend class ReservedEvent;
  friend class TimerHeap;

  // For DeadlineTimer, ReservedEvent and TimerHeap: schedules an unkeyed
  // event with an insertion sequence number taken earlier from
  // queue_.take_seq().
  EventId schedule_at_seq(Time at, std::uint64_t seq, EventAction action);

  // Advances the clock and the pop-order position to a popped event, then
  // runs it.
  void run_event(EventQueue::Next& next) {
    if (next.at != now_) {
      now_ = next.at;
      tick_seq_ = 0;
    }
    if (next.unkeyed) tick_seq_ = next.seq;
    next.action();
  }

  // Sets the clock to t with every event scheduled so far at t counted as
  // run.
  void end_tick(Time t) {
    now_ = t;
    tick_seq_ = queue_.last_seq();
  }

  Time now_ = 0;
  // How far the pop order has got within tick now_: the seq of the last
  // unkeyed event run at now_ (0 before the first). Keyed events sort
  // before every unkeyed one in their tick, and every unkeyed event that
  // can still run at now_ has a larger seq, so an unkeyed (now_, seq) has
  // been passed exactly when seq <= tick_seq_.
  std::uint64_t tick_seq_ = 0;
  EventQueue queue_;
};

}  // namespace acdc::sim
