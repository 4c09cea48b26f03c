// A one-shot event that holds its place in the pop order but enters the
// event queue only once it has work to do.
//
// A port's transmit-complete event is the model. Each transmission start
// must free the transmitter at now + tx, yet when no packet waits behind the
// one on the wire, that event would only mark the port idle. Instead,
// reserve() fixes the (at, seq) the event would have taken had it been
// scheduled right then; passed() tells whether the running event sorts at
// or after that position, i.e. whether the event would have run by now; and
// schedule() enters it into the queue at exactly that position once a
// packet waits for it. Every event therefore pops in the order it would
// with the completion always scheduled. The only visible difference is
// Simulator::executed_events(), which no longer counts completions that
// had nothing to do.
//
// Reservations are unkeyed, so a keyed event on the reserved tick (a packet
// delivery) still runs before the reserved position, as it would before a
// scheduled completion.
#pragma once

#include <cstdint>
#include <utility>

#include "sim/simulator.h"

namespace acdc::sim {

class ReservedEvent {
 public:
  explicit ReservedEvent(Simulator* sim) : sim_(sim) {}

  // Two copies would hold one queue position.
  ReservedEvent(const ReservedEvent&) = delete;
  ReservedEvent& operator=(const ReservedEvent&) = delete;

  // Reserves the position an event scheduled `delay` (>= 0) from now would
  // take: time now + delay and the next insertion seq. Nothing enters the
  // queue. Precondition: the previous reservation, if any, has passed.
  void reserve(Time delay) {
    at_ = sim_->now_ + delay;
    seq_ = sim_->queue_.take_seq();
    scheduled_ = false;
  }

  // True once the running event sorts at or after the reserved position,
  // and when nothing was ever reserved.
  bool passed() const {
    return at_ < sim_->now_ || (at_ == sim_->now_ && seq_ <= sim_->tick_seq_);
  }

  // Enters `action` into the queue at exactly the reserved position; a
  // no-op when this reservation is already scheduled. Precondition:
  // !passed().
  void schedule(EventAction action) {
    if (scheduled_) return;
    scheduled_ = true;
    sim_->schedule_at_seq(at_, seq_, std::move(action));
  }

  // Time of the reserved position; kNoTime when nothing is reserved.
  Time at() const { return at_; }

  // Re-homes onto another simulator, dropping the reservation, whose
  // position belongs to the old one. Only legal once passed().
  void rebind_simulator(Simulator* sim) {
    sim_ = sim;
    at_ = kNoTime;
    scheduled_ = false;
  }

 private:
  Simulator* sim_;
  Time at_ = kNoTime;
  std::uint64_t seq_ = 0;
  bool scheduled_ = false;
};

}  // namespace acdc::sim
