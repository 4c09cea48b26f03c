#include "net/nic.h"

#include <utility>

namespace acdc::net {

Nic::Nic(sim::Simulator* sim, std::string name, sim::Rate rate,
         sim::Time propagation_delay, std::int64_t tx_queue_bytes)
    : sim_(sim),
      name_(std::move(name)),
      tx_port_(sim, name_ + ":tx", rate, propagation_delay, tx_queue_bytes) {}

void Nic::receive(PacketPtr packet) {
  ++received_packets_;
  received_bytes_ += packet->wire_bytes();
  // Forensic delivery tap: fires before the ingress filter chain, so the
  // uid the sender's stack stamped is still intact here.
  if (packet->uid != 0 && rx_tap_) {
    rx_tap_.emit(obs::EventType::kPktDeliver, sim_->now(), packet->flow(),
                 static_cast<std::int64_t>(packet->uid),
                 packet->payload_bytes);
  }
  if (up_ != nullptr) up_->receive(std::move(packet));
}

void Nic::set_trace(obs::FlightRecorder* recorder) {
  // Registered before the TX port's own name (ids follow registration).
  rx_tap_ = recorder != nullptr ? obs::Tap(recorder, name_ + ":rx")
                                : obs::Tap();
  tx_port_.set_trace(recorder);
}

void Nic::register_metrics(obs::MetricsRegistry& registry,
                           const std::string& prefix) const {
  registry.register_counter(prefix + ".rx_packets", &received_packets_);
  registry.register_counter(prefix + ".rx_bytes", &received_bytes_);
  tx_port_.register_metrics(registry);
}

}  // namespace acdc::net
