// Flight recorder: a bounded ring buffer of TraceEvents plus an interned
// source-name table. Always-on in production deployments the way an
// aircraft recorder is — the ring overwrites the oldest events, so memory
// stays fixed no matter how long the run.
//
// Cost discipline: a component holds a `FlightRecorder*` that is nullptr (or
// disabled) by default, and guards every hook with
//
//   if (trace_ != nullptr && trace_->enabled()) { ... build + record ... }
//
// so a disabled recorder costs one predictable branch per hook and the
// event is never even constructed.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "obs/trace_event.h"

namespace acdc::obs {

class FlightRecorder {
 public:
  // capacity == 0 constructs a disabled recorder (no storage).
  explicit FlightRecorder(std::size_t capacity = 0);

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on && cap_ > 0; }

  // Re-sizes the ring; existing events are discarded. capacity == 0
  // disables the recorder entirely.
  void set_capacity(std::size_t capacity);
  std::size_t capacity() const { return cap_; }

  // Interns `name` and returns its id (same name -> same id). Id 0 is
  // reserved for "unattributed".
  std::uint32_t register_source(const std::string& name);
  const std::string& source_name(std::uint32_t id) const;
  const std::vector<std::string>& sources() const { return sources_; }

  // Appends one event (timestamp already filled by the caller). No-op when
  // disabled.
  void record(const TraceEvent& ev);

  // In-place variant for the per-packet tap path: reserves the ring slot,
  // zeroes it, sets `type`, hands it to `fill` to populate, then notifies
  // listeners — saving the stack construct + 64-byte copy record() pays.
  // A disabled recorder skips even the fill callback.
  template <typename Fn>
  void emit(EventType type, Fn&& fill) {
    if (!enabled_) return;
    TraceEvent* slot;
    if (size_ == cap_) {
      slot = &ring_[head_];
      if (++head_ == cap_) head_ = 0;
      ++overwritten_;
    } else {
      std::size_t i = head_ + size_;
      if (i >= cap_) i -= cap_;
      slot = &ring_[i];
      ++size_;
    }
    *slot = TraceEvent{};
    slot->type = type;
    fill(*slot);
    for (const Listener& l : listeners_) l(*slot);
    ++recorded_;
  }

  // ---- Subscription ----
  // Listeners see every accepted event as it is recorded, before ring
  // overwrite can discard it — the hook invariant checkers and stream
  // digests build on. Listeners must not record() back into this recorder.
  using Listener = std::function<void(const TraceEvent&)>;
  std::size_t add_listener(Listener fn);

  // ---- Inspection (oldest first) ----
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  // i == 0 is the oldest retained event.
  const TraceEvent& at(std::size_t i) const {
    return ring_[(head_ + i) % cap_];
  }
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t i = 0; i < size_; ++i) fn(at(i));
  }
  std::size_t count(EventType type) const;

  // Lifetime totals: events accepted, and events pushed out of the ring.
  std::uint64_t recorded_events() const { return recorded_; }
  std::uint64_t overwritten_events() const { return overwritten_; }

  void clear();

 private:
  bool enabled_ = false;
  std::vector<TraceEvent> ring_;
  std::size_t cap_ = 0;
  std::size_t head_ = 0;  // index of the oldest event
  std::size_t size_ = 0;
  std::uint64_t recorded_ = 0;
  std::uint64_t overwritten_ = 0;
  std::vector<std::string> sources_;
  std::vector<Listener> listeners_;
};

}  // namespace acdc::obs
