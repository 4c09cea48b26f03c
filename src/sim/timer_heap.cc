#include "sim/timer_heap.h"

#include <algorithm>
#include <cassert>

namespace acdc::sim {

void TimerHeap::arm(Time delay, std::uint64_t tag) {
  const std::uint64_t seq = sim_->queue_.take_seq();
  heap_.push_back(Entry{sim_->now() + delay, seq, tag});
  std::push_heap(heap_.begin(), heap_.end(), later);
  // Seqs are unique, so the new entry is the earliest exactly when it
  // reached the front.
  if (heap_.front().seq != seq) return;
  sim_->cancel(pending_);
  schedule_earliest();
}

void TimerHeap::schedule_earliest() {
  const Entry& e = heap_.front();
  pending_ = sim_->schedule_at_seq(e.at, e.seq, [this] { fire(); });
}

void TimerHeap::fire() {
  // The pending event always stands for the earliest entry.
  assert(!heap_.empty() && sim_->now() == heap_.front().at);
  const std::uint64_t tag = heap_.front().tag;
  std::pop_heap(heap_.begin(), heap_.end(), later);
  heap_.pop_back();
  pending_ = kInvalidEventId;
  // The next entry sorts after the running one, so it is still ahead in
  // the pop order; queued before the handler runs, it may be overtaken by
  // a timer the handler arms, as its own event would be.
  if (!heap_.empty()) schedule_earliest();
  on_fire_(owner_, tag);
}

}  // namespace acdc::sim
