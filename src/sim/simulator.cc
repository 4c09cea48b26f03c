#include "sim/simulator.h"

#include <limits>
#include <utility>

#include "sim/check.h"

namespace acdc::sim {

namespace {

// Causality guard shared by every schedule path: an event in the past
// would either run out of order or land below the calendar's current
// bucket, so it must fail loudly in every build.
inline void check_causal(Time at, Time now) {
  ACDC_CHECK(at >= now, "event scheduled into the past: at=%lld now=%lld",
             static_cast<long long>(at), static_cast<long long>(now));
}

}  // namespace

EventId Simulator::schedule(Time delay, EventAction action) {
  check_causal(now_ + delay, now_);
  return queue_.schedule(now_ + delay, std::move(action));
}

EventId Simulator::schedule_at(Time at, EventAction action) {
  check_causal(at, now_);
  return queue_.schedule(at, std::move(action));
}

EventId Simulator::schedule_keyed(Time delay, std::uint64_t key,
                                  EventAction action) {
  check_causal(now_ + delay, now_);
  return queue_.schedule(now_ + delay, key, std::move(action));
}

EventId Simulator::schedule_at_keyed(Time at, std::uint64_t key,
                                     EventAction action) {
  check_causal(at, now_);
  return queue_.schedule(at, key, std::move(action));
}

EventId Simulator::schedule_keyed(Time delay, EventAction action) {
  check_causal(now_ + delay, now_);
  return queue_.schedule_keyed(now_ + delay, std::move(action));
}

EventId Simulator::schedule_at_keyed_seq(Time at, std::uint64_t key,
                                         std::uint64_t tie_seq,
                                         EventAction action) {
  check_causal(at, now_);
  ACDC_CHECK(tie_seq & kExplicitTieSeqBit,
             "explicit tie sequence %llx lacks kExplicitTieSeqBit",
             static_cast<unsigned long long>(tie_seq));
  return queue_.schedule(at, key, tie_seq, std::move(action));
}

EventId Simulator::schedule_at_seq(Time at, std::uint64_t seq,
                                   EventAction action) {
  check_causal(at, now_);
  return queue_.schedule(at, kUnkeyedTieKey, seq, std::move(action));
}

void Simulator::run() {
  while (step()) {
  }
  end_tick(now_);
}

void Simulator::run_until(Time deadline) {
  for (;;) {
    EventQueue::Next next;
    if (!queue_.take_next(deadline, next)) break;
    run_event(next);
  }
  if (now_ <= deadline) end_tick(deadline);
}

void Simulator::run_before(Time bound) {
  for (;;) {
    EventQueue::Next next;
    if (!queue_.take_next(bound - 1, next)) break;
    run_event(next);
  }
}

bool Simulator::step() {
  EventQueue::Next next;
  if (!queue_.take_next(std::numeric_limits<Time>::max(), next)) return false;
  run_event(next);
  return true;
}

}  // namespace acdc::sim
