// Flight recorder: a bounded ring buffer of TraceEvents plus an interned
// source-name table. Always-on in production deployments the way an
// aircraft recorder is — the ring overwrites the oldest events, so memory
// stays fixed no matter how long the run.
//
// Cost discipline: a component records through one obs::Tap (below), off
// by default, and guards every hook with
//
//   if (tap_) tap_.emit(type, t, flow, a, b, x);
//
// so a disabled recorder costs one predictable branch per hook, and
// neither the event nor any of its arguments is evaluated.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
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

  // Interns `name` and returns its id (same name -> same id; ids follow
  // first registration). Id 0 is reserved for "unattributed".
  std::uint32_t register_source(const std::string& name);
  const std::string& source_name(std::uint32_t id) const;
  const std::vector<std::string>& sources() const { return sources_; }

  // The one way into the ring: reserves the slot (overwriting the oldest
  // event when full), zeroes it, sets `type`, hands it to `fill` to
  // populate, then notifies listeners. A disabled recorder skips even the
  // fill callback.
  template <typename Fn>
  void emit(EventType type, Fn&& fill) {
    if (!enabled_) return;
    // Branch-wrap instead of `% cap_`: an integer divide per event is
    // measurable against a ~100 ns packet budget.
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
  // digests build on. Listeners must not emit() back into this recorder.
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
  std::vector<std::string> sources_;  // by id
  std::unordered_map<std::string, std::uint32_t> source_ids_;
  std::vector<Listener> listeners_;
};

// One component's handle on a recorder: the recorder and the id its source
// name was interned under. Off without a recorder or while the recorder is
// disabled; each hook site is one `if (tap_) tap_.emit(...)`, whose
// arguments are evaluated only behind that branch.
class Tap {
 public:
  Tap() = default;
  // Interns `name` in `recorder`; a null recorder leaves the tap off.
  Tap(FlightRecorder* recorder, const std::string& name)
      : recorder_(recorder),
        source_(recorder != nullptr ? recorder->register_source(name) : 0) {}

  explicit operator bool() const {
    return recorder_ != nullptr && recorder_->enabled();
  }

  // Records one event stamped with this tap's source. Call only when on.
  void emit(EventType type, sim::Time t, const Flow& flow, std::int64_t a,
            std::int64_t b = 0, double x = 0.0) const {
    recorder_->emit(type, [&](TraceEvent& ev) {
      ev.t = t;
      ev.source = source_;
      ev.src_ip = flow.src_ip;
      ev.dst_ip = flow.dst_ip;
      ev.src_port = flow.src_port;
      ev.dst_port = flow.dst_port;
      ev.a = a;
      ev.b = b;
      ev.x = x;
    });
  }

 private:
  FlightRecorder* recorder_ = nullptr;
  std::uint32_t source_ = 0;
};

}  // namespace acdc::obs
