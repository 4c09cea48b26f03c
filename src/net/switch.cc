#include "net/switch.h"

#include <utility>

#include "sim/hash.h"

namespace acdc::net {

Switch::Switch(sim::Simulator* sim, std::string name, SwitchConfig config)
    : sim_(sim),
      name_(std::move(name)),
      config_(config),
      pool_(config.shared_buffer_bytes) {}

Port* Switch::add_port(sim::Rate rate, sim::Time propagation_delay) {
  // Port queues have no cap of their own: the shared pool bounds them.
  auto port = std::make_unique<Port>(
      sim_, name_ + ":p" + std::to_string(ports_.size()), rate,
      propagation_delay, 0, config_.mark_threshold_bytes);
  port->queue().set_shared_pool(&pool_);
  if (trace_ != nullptr) port->set_trace(trace_);
  ports_.push_back(std::move(port));
  return ports_.back().get();
}

void Switch::rebind_simulator(sim::Simulator* sim) {
  sim_ = sim;
  for (const auto& port : ports_) port->rebind_simulator(sim);
}

void Switch::set_trace(obs::FlightRecorder* recorder) {
  trace_ = recorder;
  for (const auto& port : ports_) port->set_trace(recorder);
}

void Switch::register_metrics(obs::MetricsRegistry& registry) const {
  for (const auto& port : ports_) port->register_metrics(registry);
  registry.register_gauge(name_ + ".buffer_used_bytes", [this] {
    return static_cast<double>(pool_.used_bytes());
  });
  registry.register_counter(name_ + ".routing_failures", &routing_failures_);
}

void Switch::add_route(IpAddr dst, Port* port) { routes_[dst] = port; }

void Switch::receive(PacketPtr packet) {
  Port* out = nullptr;
  if (Port* const* route = routes_.find(packet->ip.dst)) {
    out = *route;
  } else if (!default_ecmp_.empty()) {
    // ECMP on the directional 4-tuple (sim/hash.h says what that implies).
    const std::size_t h = static_cast<std::size_t>(
        sim::tuple_hash(packet->ip.src, packet->ip.dst, packet->tcp.src_port,
                        packet->tcp.dst_port));
    out = default_ecmp_[h % default_ecmp_.size()];
  } else {
    out = default_route_;
  }
  if (out == nullptr) {
    ++routing_failures_;
    return;  // packet dropped
  }
  out->send(std::move(packet));
}

QueueStats Switch::total_stats() const {
  QueueStats total;
  for (const auto& port : ports_) total.fold(port->queue().stats());
  return total;
}

}  // namespace acdc::net
