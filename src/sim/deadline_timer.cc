#include "sim/deadline_timer.h"

namespace acdc::sim {

void DeadlineTimer::arm(Time delay) {
  const Time at = sim_->now() + delay;
  const bool later = at >= deadline_;
  deadline_ = at;
  seq_ = sim_->queue_.take_seq();
  if (pending_ != kInvalidEventId) {
    // The new (at, seq) sorts after the old deadline's whenever at is not
    // earlier, so the pending event can carry the timer forward.
    if (later) return;
    sim_->cancel(pending_);
  }
  schedule_pending();
}

void DeadlineTimer::disarm() {
  if (pending_ != kInvalidEventId) sim_->cancel(pending_);
  pending_ = kInvalidEventId;
  deadline_ = kNoTime;
}

void DeadlineTimer::schedule_pending() {
  pending_ = sim_->schedule_at_seq(deadline_, seq_,
                                   [this, seq = seq_] { fire(seq); });
}

void DeadlineTimer::fire(std::uint64_t seq) {
  pending_ = kInvalidEventId;
  if (seq != seq_) {
    schedule_pending();
    return;
  }
  // Disarmed before the handler runs, so the handler may re-arm.
  deadline_ = kNoTime;
  on_fire_(owner_);
}

}  // namespace acdc::sim
