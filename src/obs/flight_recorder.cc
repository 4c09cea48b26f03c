#include "obs/flight_recorder.h"

namespace acdc::obs {

const EventMeta& event_meta(EventType type) {
  static const EventMeta kMeta[] = {
      // name, a, b, x
      {"window_enforced", "rwnd_bytes", "cwnd_bytes", "alpha"},
      {"alpha_update", "win_marked", "win_total", "alpha"},
      {"cwnd_update", "cwnd_bytes", "ssthresh_bytes", "alpha"},
      {"policed_drop", "payload_bytes", "allowed_bytes", nullptr},
      {"timeout_inferred", "cwnd_bytes", "idle_ns", nullptr},
      {"dupack_injected", "count", nullptr, nullptr},
      {"window_update_injected", "raw_window", nullptr, nullptr},
      {"pack_attached", "fb_total", "fb_marked", nullptr},
      {"fack_emitted", "fb_total", "fb_marked", nullptr},
      {"fack_consumed", "fb_total_delta", "fb_marked_delta", nullptr},
      {"ecn_strip", "payload_bytes", "was_ce", nullptr},
      {"ecn_mark", "queue_bytes", "packet_bytes", nullptr},
      {"queue_enqueue", "queue_bytes", "packet_bytes", nullptr},
      {"queue_drop", "queue_bytes", "packet_bytes", nullptr},
      {"queue_occupancy", "queue_bytes", "queue_packets", nullptr},
      {"conn_state", "state", "prev_state", nullptr},
      {"tcp_cwnd", "cwnd_bytes", "ssthresh_bytes", nullptr},
      {"pkt_origin", "uid", "payload_bytes", nullptr},
      {"pkt_retx", "uid", "wait_ns", "rto"},
      {"tcp_send_stall", "stall_ns", "cause", nullptr},
      {"pkt_tx_start", "uid", "serialization_ns", "queue_wait_ns"},
      {"pkt_drop", "uid", "queue_bytes", "packet_bytes"},
      {"pkt_deliver", "uid", "payload_bytes", nullptr},
      {"rwnd_clamped", "enforced_rwnd_bytes", "vm_window_bytes", nullptr},
  };
  static_assert(sizeof(kMeta) / sizeof(kMeta[0]) ==
                    static_cast<std::size_t>(EventType::kCount),
                "event_meta table out of sync with EventType");
  return kMeta[static_cast<std::size_t>(type)];
}

FlightRecorder::FlightRecorder(std::size_t capacity) {
  register_source("");  // id 0: unattributed
  set_capacity(capacity);
}

void FlightRecorder::set_capacity(std::size_t capacity) {
  ring_.assign(capacity, TraceEvent{});
  ring_.shrink_to_fit();
  cap_ = capacity;
  head_ = 0;
  size_ = 0;
  enabled_ = capacity > 0;
}

std::uint32_t FlightRecorder::register_source(const std::string& name) {
  const auto [it, added] = source_ids_.try_emplace(
      name, static_cast<std::uint32_t>(sources_.size()));
  if (added) sources_.push_back(name);
  return it->second;
}

const std::string& FlightRecorder::source_name(std::uint32_t id) const {
  return id < sources_.size() ? sources_[id] : sources_[0];
}

std::size_t FlightRecorder::add_listener(Listener fn) {
  listeners_.push_back(std::move(fn));
  return listeners_.size() - 1;
}

std::size_t FlightRecorder::count(EventType type) const {
  std::size_t n = 0;
  for_each([&](const TraceEvent& ev) { n += ev.type == type ? 1 : 0; });
  return n;
}

void FlightRecorder::clear() {
  head_ = 0;
  size_ = 0;
}

}  // namespace acdc::obs
