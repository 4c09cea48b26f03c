#include "net/nic.h"

#include <utility>

namespace acdc::net {

Nic::Nic(sim::Simulator* sim, std::string name, sim::Rate rate,
         sim::Time propagation_delay, std::int64_t tx_queue_bytes)
    : sim_(sim),
      name_(std::move(name)),
      tx_port_(sim, name_ + ":tx", rate, propagation_delay,
               std::make_unique<DropTailQueue>(tx_queue_bytes)) {}

void Nic::receive(PacketPtr packet) {
  ++received_packets_;
  received_bytes_ += packet->wire_bytes();
  // Forensic delivery tap: fires before the ingress filter chain, so the
  // uid the sender's stack stamped is still intact here.
  if (packet->uid != 0 && trace_ != nullptr && trace_->enabled()) {
    trace_->emit(obs::EventType::kPktDeliver, [&](obs::TraceEvent& ev) {
      ev.t = sim_->now();
      ev.source = trace_source_;
      ev.src_ip = packet->ip.src;
      ev.dst_ip = packet->ip.dst;
      ev.src_port = packet->tcp.src_port;
      ev.dst_port = packet->tcp.dst_port;
      ev.a = static_cast<std::int64_t>(packet->uid);
      ev.b = packet->payload_bytes;
    });
  }
  if (up_ != nullptr) up_->receive(std::move(packet));
}

void Nic::set_trace(obs::FlightRecorder* recorder) {
  trace_ = recorder;
  trace_source_ =
      recorder != nullptr ? recorder->register_source(name_ + ":rx") : 0;
  tx_port_.set_trace(recorder);
}

void Nic::register_metrics(obs::MetricsRegistry& registry,
                           const std::string& prefix) const {
  registry.register_counter(prefix + ".rx_packets", &received_packets_);
  registry.register_counter(prefix + ".rx_bytes", &received_bytes_);
  tx_port_.register_metrics(registry);
}

}  // namespace acdc::net
