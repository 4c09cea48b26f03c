#include "host/host.h"

#include <utility>

#include "sim/check.h"

namespace acdc::host {

Host::Host(sim::Simulator* sim, std::string name, net::IpAddr ip,
           const HostConfig& config)
    : sim_(sim),
      name_(std::move(name)),
      ip_(ip),
      tsq_limit_bytes_(config.tsq_limit_bytes),
      nic_(sim, name_, config.link_rate, config.link_delay,
           config.nic_queue_bytes) {
  ACDC_CHECK(tsq_limit_bytes_ > 0,
             "host %s: tsq_limit_bytes must be positive (%lld)", name_.c_str(),
             static_cast<long long>(tsq_limit_bytes_));
  nic_.tx_port().set_drain_callback([this] { on_nic_drain(); });
  rewire();
}

void Host::on_nic_drain() {
  if (!tx_blocked_hint_) return;
  if (nic_.tx_port().queue().byte_length() >= tsq_limit_bytes_) return;
  tx_blocked_hint_ = false;
  // Rotate the starting point so connections share the freed budget fairly
  // (the first poked connection may consume all of it).
  const std::size_t n = connections_.size();
  if (n == 0) return;
  next_poke_ = (next_poke_ + 1) % n;
  for (std::size_t i = 0; i < n; ++i) {
    connections_[(next_poke_ + i) % n]->poke();
  }
}

void Host::EgressEntry::receive(net::PacketPtr packet) {
  host_->egress_target_->receive(std::move(packet));
}

void Host::add_filter(net::DuplexFilter* filter) {
  ACDC_CHECK(connections_.empty(),
             "host %s: install filters before opening connections (%zu open)",
             name_.c_str(), connections_.size());
  filters_.push_back(filter);
  rewire();
}

void Host::rewire() {
  if (filters_.empty()) {
    egress_target_ = &nic_.tx();
    nic_.set_up(this);
    return;
  }
  egress_target_ = &filters_.front()->egress_in();
  for (std::size_t i = 0; i < filters_.size(); ++i) {
    filters_[i]->set_down(i + 1 < filters_.size()
                              ? &filters_[i + 1]->egress_in()
                              : static_cast<net::PacketSink*>(&nic_.tx()));
    filters_[i]->set_up(i == 0 ? static_cast<net::PacketSink*>(this)
                               : &filters_[i - 1]->ingress_in());
  }
  nic_.set_up(&filters_.back()->ingress_in());
}

tcp::TcpConnection* Host::make_connection(const tcp::TcpConfig& config,
                                          tcp::Endpoint local,
                                          tcp::Endpoint remote) {
  auto conn = std::make_unique<tcp::TcpConnection>(sim_, config, local, remote,
                                                   &egress_entry_);
  tcp::TcpConnection* raw = conn.get();
  trace_connection(*raw);
  if (rtt_hist_ != nullptr) raw->set_rtt_histogram(rtt_hist_);
  raw->tx_gate = [this] {
    if (nic_.tx_port().queue().byte_length() < tsq_limit_bytes_) return true;
    tx_blocked_hint_ = true;
    return false;
  };
  raw->host_index = connections_.size();
  connections_.push_back(std::move(conn));
  demux_[conn_key(local.port, remote.ip, remote.port)] = raw;
  ++conns_opened_;
  return raw;
}

net::TcpPort Host::alloc_ephemeral(net::IpAddr remote_ip,
                                   net::TcpPort remote_port) {
  // The ephemeral range wraps; under churn a port returns to the pool as
  // soon as its old connection is released, so probe until the 4-tuple is
  // actually free (the same port may be live toward a different remote).
  for (int attempts = 0; attempts <= 65'535 - kEphemeralBase; ++attempts) {
    const net::TcpPort port = next_ephemeral_;
    next_ephemeral_ =
        next_ephemeral_ >= 65'535 ? kEphemeralBase : next_ephemeral_ + 1;
    if (demux_.find(conn_key(port, remote_ip, remote_port)) == nullptr) {
      return port;
    }
  }
  ACDC_CHECK(false,
             "host %s: ephemeral ports toward %s:%u are exhausted (%d in use)",
             name_.c_str(), net::ip_to_string(remote_ip).c_str(),
             static_cast<unsigned>(remote_port), 65'536 - kEphemeralBase);
  return 0;
}

tcp::TcpConnection* Host::connect(net::IpAddr remote_ip,
                                  net::TcpPort remote_port,
                                  const tcp::TcpConfig& config) {
  const tcp::Endpoint local{ip_, alloc_ephemeral(remote_ip, remote_port)};
  const tcp::Endpoint remote{remote_ip, remote_port};
  tcp::TcpConnection* conn = make_connection(config, local, remote);
  conn->open_active();
  return conn;
}

void Host::release_connection(tcp::TcpConnection* conn) {
  const std::size_t i = conn->host_index;
  if (i >= connections_.size() || connections_[i].get() != conn) {
    return;  // already released
  }
  const std::uint64_t key =
      conn_key(conn->local().port, conn->remote().ip, conn->remote().port);
  // Only erase our own demux entry — a recycled 4-tuple may already map to
  // a successor connection.
  if (tcp::TcpConnection** owner = demux_.find(key);
      owner != nullptr && *owner == conn) {
    demux_.erase(key);
  }
  // Swap-and-pop keeps removal O(1); re-stamp the moved connection's index.
  if (i + 1 < connections_.size()) {
    std::swap(connections_[i], connections_.back());
    connections_[i]->host_index = i;
  }
  graveyard_.push_back(std::move(connections_.back()));
  connections_.pop_back();
  if (next_poke_ >= connections_.size()) next_poke_ = 0;
  ++conns_released_;
  // Destruction is deferred one event: release_connection is typically
  // called from inside the dying connection's own callback stack.
  if (!graveyard_flush_scheduled_) {
    graveyard_flush_scheduled_ = true;
    sim_->schedule(0, [this] { flush_graveyard(); });
  }
}

void Host::flush_graveyard() {
  graveyard_flush_scheduled_ = false;
  graveyard_.clear();
}

void Host::listen(net::TcpPort port, const tcp::TcpConfig& config,
                  std::function<void(tcp::TcpConnection*)> on_accept) {
  listeners_[port] = Listener{config, std::move(on_accept)};
}

void Host::receive(net::PacketPtr packet) {
  if (tcp::TcpConnection** found = demux_.find(conn_key(
          packet->tcp.dst_port, packet->ip.src, packet->tcp.src_port))) {
    // A fresh SYN landing on a dead (kDone, unreleased) connection means
    // the client recycled its ephemeral port faster than this side tore
    // down state. Reap the corpse and let the listener spawn a successor
    // below — otherwise the SYN would be swallowed and the client stuck.
    tcp::TcpConnection* conn = *found;
    const bool stale_syn = packet->tcp.flags.syn && !packet->tcp.flags.ack &&
                           conn->state() == tcp::TcpConnection::State::kDone &&
                           listeners_.find(packet->tcp.dst_port) != nullptr;
    if (!stale_syn) {
      conn->receive(std::move(packet));
      return;
    }
    release_connection(conn);
  }
  // No connection: a SYN to a listening port spawns one.
  if (packet->tcp.flags.syn && !packet->tcp.flags.ack) {
    if (const Listener* listener = listeners_.find(packet->tcp.dst_port)) {
      const tcp::Endpoint local{ip_, packet->tcp.dst_port};
      const tcp::Endpoint remote{packet->ip.src, packet->tcp.src_port};
      tcp::TcpConnection* conn =
          make_connection(listener->config, local, remote);
      conn->open_passive(*packet);
      if (listener->on_accept) listener->on_accept(conn);
      return;
    }
  }
  ++demux_misses_;
  // No TCB at all (RFC 793 CLOSED): anything but an RST answers with an
  // RST, so a peer retransmitting into a torn-down endpoint — classically
  // LAST-ACK whose final ACK was lost, after this side already released
  // the connection — aborts cleanly instead of retransmitting forever.
  // SYNs keep their silent-drop fate: ports without listeners behave like
  // a firewalled drop, and connect() retries cover transient SYN loss.
  if (!packet->tcp.flags.rst && !packet->tcp.flags.syn) {
    auto rst = net::make_packet();
    rst->ip.src = ip_;
    rst->ip.dst = packet->ip.src;
    rst->tcp.src_port = packet->tcp.dst_port;
    rst->tcp.dst_port = packet->tcp.src_port;
    rst->tcp.flags.rst = true;
    rst->tcp.flags.ack = true;
    rst->tcp.seq = packet->tcp.ack_seq;
    rst->tcp.ack_seq = packet->tcp.seq;
    egress_entry_.receive(std::move(rst));
  }
}

void Host::rebind_simulator(sim::Simulator* sim) {
  ACDC_CHECK(connections_.empty(),
             "host %s: partition the scenario before opening connections "
             "(%zu open)",
             name_.c_str(), connections_.size());
  sim_ = sim;
  nic_.rebind_simulator(sim);
}

void Host::trace_connection(tcp::TcpConnection& conn) const {
  conn.set_tap(trace_ == nullptr
                   ? obs::Tap()
                   : obs::Tap(trace_, name_ + ".tcp:" +
                                          std::to_string(conn.local().port)));
}

void Host::set_trace(obs::FlightRecorder* recorder) {
  trace_ = recorder;
  nic_.set_trace(recorder);
  for (const auto& conn : connections_) trace_connection(*conn);
}

void Host::register_metrics(obs::MetricsRegistry& registry) const {
  nic_.register_metrics(registry, name_);
  rtt_hist_ = &registry.histogram(name_ + ".rtt_ns");
  for (const auto& conn : connections_) {
    conn->set_rtt_histogram(rtt_hist_);
  }
  registry.register_counter(name_ + ".demux_misses", &demux_misses_);
  registry.register_counter(name_ + ".connections_opened", &conns_opened_);
  registry.register_counter(name_ + ".connections_released",
                            &conns_released_);
  registry.register_gauge(name_ + ".connections", [this] {
    return static_cast<double>(connections_.size());
  });
}

}  // namespace acdc::host
