// A re-armable one-shot timer with at most one pending event: the Linux
// sk_reset_timer pattern.
//
// TCP re-arms its retransmission timer on nearly every ACK. Cancel +
// schedule would leave a cancelled tombstone in the event queue each time.
// Instead, re-arming to a deadline no earlier than the current one only
// moves a field; the pending event checks the deadline when it fires and,
// if the deadline moved, schedules itself again for it. Re-arming to an
// earlier deadline, or disarming, cancels the pending event.
//
// The timer is bit-identical to cancel + schedule: every arm takes the
// insertion sequence number that schedule() would have used, and the event
// that finally fires carries exactly that (at, key, seq), so every other
// event keeps its place in the pop order. The only visible difference is
// Simulator::executed_events(), which also counts the intermediate fires of
// timers whose deadline moved later.
#pragma once

#include <cstdint>

#include "sim/simulator.h"

namespace acdc::sim {

class DeadlineTimer {
 public:
  // Runs `on_fire(owner)` when the deadline passes. A function pointer plus
  // an owner pointer rather than a closure keeps the timer at 48 bytes; a
  // TCP connection carries two.
  using Handler = void (*)(void* owner);

  DeadlineTimer(Simulator* sim, void* owner, Handler on_fire)
      : sim_(sim), owner_(owner), on_fire_(on_fire) {}
  ~DeadlineTimer() { disarm(); }

  // The pending event points back at the timer, so it never moves.
  DeadlineTimer(const DeadlineTimer&) = delete;
  DeadlineTimer& operator=(const DeadlineTimer&) = delete;

  // Arms the timer to fire `delay` (>= 0) from now, replacing the current
  // deadline if there is one.
  void arm(Time delay);
  // Stops the timer; a no-op when it is not armed.
  void disarm();

  // True from arm until the handler runs or disarm().
  bool armed() const { return deadline_ != kNoTime; }

 private:
  void schedule_pending();
  void fire(std::uint64_t seq);

  Simulator* sim_;
  void* owner_;
  Handler on_fire_;
  Time deadline_ = kNoTime;
  // Insertion seq taken by the latest arm. The pending event sorts at or
  // before (deadline_, seq_) and knows its own seq, so a mismatch at fire
  // time means the deadline moved.
  std::uint64_t seq_ = 0;
  EventId pending_ = kInvalidEventId;
};

}  // namespace acdc::sim
