#include "net/switch.h"

#include <utility>

namespace acdc::net {

Switch::Switch(sim::Simulator* sim, std::string name, SwitchConfig config,
               sim::Rng* rng)
    : sim_(sim),
      name_(std::move(name)),
      config_(config),
      rng_(rng),
      pool_(config.shared_buffer_bytes, config.buffer_alpha) {}

std::unique_ptr<Queue> Switch::make_queue() {
  std::unique_ptr<Queue> q;
  if (config_.red_enabled()) {
    RedConfig red;
    red.capacity_bytes = 0;  // bounded by the shared pool, not per queue
    red.min_threshold_bytes = config_.red_min_bytes;
    red.max_threshold_bytes = config_.red_max_bytes;
    red.max_probability = config_.red_max_probability;
    q = std::make_unique<RedQueue>(red, rng_);
  } else {
    q = std::make_unique<DropTailQueue>(config_.shared_buffer_bytes);
  }
  q->set_shared_pool(&pool_);
  return q;
}

Port* Switch::add_port(sim::Rate rate, sim::Time propagation_delay) {
  auto port = std::make_unique<Port>(
      sim_, name_ + ":p" + std::to_string(ports_.size()), rate,
      propagation_delay, make_queue());
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

namespace {
// Symmetric 5-tuple hash, so both directions of a connection pick
// consistent (but independent per switch tier) uplinks.
std::size_t flow_hash(const Packet& p) {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  mix(p.ip.src);
  mix(p.ip.dst);
  mix((static_cast<std::uint64_t>(p.tcp.src_port) << 16) | p.tcp.dst_port);
  return static_cast<std::size_t>(h);
}
}  // namespace

void Switch::receive(PacketPtr packet) {
  Port* out = nullptr;
  if (Port* const* route = routes_.find(packet->ip.dst)) {
    out = *route;
  } else if (!default_ecmp_.empty()) {
    out = default_ecmp_[flow_hash(*packet) % default_ecmp_.size()];
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
  for (const auto& port : ports_) {
    const QueueStats& s = port->queue().stats();
    total.enqueued_packets += s.enqueued_packets;
    total.enqueued_bytes += s.enqueued_bytes;
    total.dropped_packets += s.dropped_packets;
    total.dropped_bytes += s.dropped_bytes;
    total.marked_packets += s.marked_packets;
    if (s.peak_bytes > total.peak_bytes) total.peak_bytes = s.peak_bytes;
  }
  return total;
}

}  // namespace acdc::net
