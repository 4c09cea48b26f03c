// A server: TCP connections, a datapath of DuplexFilters (where the AC/DC
// vSwitch lives), and a NIC. Mirrors the paper's Fig. 3 stack:
//   apps -> TCP stack -> vSwitch datapath -> NIC -> fabric.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "net/datapath.h"
#include "net/nic.h"
#include "net/packet.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "sim/flat_map.h"
#include "sim/simulator.h"
#include "tcp/tcp_connection.h"

namespace acdc::host {

struct HostConfig {
  sim::Rate link_rate = sim::gigabits_per_second(10);
  sim::Time link_delay = sim::microseconds(2);
  // TX queue between the datapath and the wire. Kept small, as on real
  // servers where TSO + TCP Small Queues bound a sender's self-queueing;
  // a multi-MB value here would hide switch-side AQM behind sender-side
  // bufferbloat.
  std::int64_t nic_queue_bytes = 512 * 1024;
  // TCP Small Queues analogue: connections stop emitting new data while
  // the NIC TX queue holds at least this much, and are poked when it
  // drains. Must be positive.
  std::int64_t tsq_limit_bytes = 128 * 1024;
};

class Host : public net::PacketSink {
 public:
  Host(sim::Simulator* sim, std::string name, net::IpAddr ip,
       const HostConfig& config);

  const std::string& name() const { return name_; }
  net::IpAddr ip() const { return ip_; }
  net::Nic& nic() { return nic_; }
  // The simulator that owns this host's events: its shard's once the
  // scenario is partitioned. Apps, churn sources and service tiers bound
  // to the host schedule their timers here.
  sim::Simulator* sim() const { return sim_; }

  // Adds a datapath filter (non-owning). Filters see egress packets in
  // insertion order and ingress packets in reverse order. Install filters
  // before opening connections.
  void add_filter(net::DuplexFilter* filter);

  // Active open to a remote host; allocates an ephemeral local port.
  tcp::TcpConnection* connect(net::IpAddr remote_ip, net::TcpPort remote_port,
                              const tcp::TcpConfig& config);

  // Passive open: SYNs to `port` spawn connections with `config`.
  void listen(net::TcpPort port, const tcp::TcpConfig& config,
              std::function<void(tcp::TcpConnection*)> on_accept = {});

  // Tears down a finished connection: the demux entry dies immediately (the
  // 4-tuple — and with it the ephemeral port — becomes reusable), the object
  // itself is destroyed on a zero-delay event so it is safe to call from the
  // connection's own callbacks (on_closed and friends). Under flow churn
  // this is what keeps per-host state bounded; long-lived experiment apps
  // simply never call it. Idempotent per connection.
  void release_connection(tcp::TcpConnection* conn);

  // Ingress from the datapath (post-filters) — demultiplexes to connections.
  void receive(net::PacketPtr packet) override;

  const std::vector<std::unique_ptr<tcp::TcpConnection>>& connections() const {
    return connections_;
  }
  std::int64_t demux_misses() const { return demux_misses_; }
  // Lifecycle counters: cumulative opens (active + passive) and releases.
  std::int64_t connections_opened() const { return conns_opened_; }
  std::int64_t connections_released() const { return conns_released_; }

  // Re-homes the host (NIC, future connections and apps) onto a shard's
  // simulator. Partitioning happens before any connection or app exists.
  void rebind_simulator(sim::Simulator* sim);

  // Wires the flight recorder into the NIC and into every connection —
  // existing and future (each gets its own "<host>.tcp:<port>" source).
  // nullptr turns all of them off, so the old recorder may then be freed.
  void set_trace(obs::FlightRecorder* recorder);
  // Absorbs NIC counters and a live connection-count gauge as "<host>.*",
  // plus a "<host>.rtt_ns" histogram fed by every connection's RTT samples.
  void register_metrics(obs::MetricsRegistry& registry) const;

 private:
  // A connection's demux key: {remote ip, local port, remote port}.
  static std::uint64_t conn_key(net::TcpPort local_port, net::IpAddr remote_ip,
                                net::TcpPort remote_port) {
    return (std::uint64_t{remote_ip} << 32) |
           (std::uint64_t{local_port} << 16) | remote_port;
  }
  struct Listener {
    tcp::TcpConfig config;
    std::function<void(tcp::TcpConnection*)> on_accept;
  };

  // Entry point connections transmit into; forwards to the datapath head.
  class EgressEntry : public net::PacketSink {
   public:
    explicit EgressEntry(Host* host) : host_(host) {}
    void receive(net::PacketPtr packet) override;

   private:
    Host* host_;
  };

  void rewire();
  tcp::TcpConnection* make_connection(const tcp::TcpConfig& config,
                                      tcp::Endpoint local,
                                      tcp::Endpoint remote);
  // Taps `conn` into the recorder as "<host>.tcp:<local port>"; an
  // untraced host turns the tap off and formats no name.
  void trace_connection(tcp::TcpConnection& conn) const;
  void on_nic_drain();
  net::TcpPort alloc_ephemeral(net::IpAddr remote_ip,
                               net::TcpPort remote_port);
  void flush_graveyard();

  sim::Simulator* sim_;
  std::string name_;
  net::IpAddr ip_;
  std::int64_t tsq_limit_bytes_;
  net::Nic nic_;
  bool tx_blocked_hint_ = false;
  std::size_t next_poke_ = 0;
  EgressEntry egress_entry_{this};
  net::PacketSink* egress_target_ = nullptr;  // head of the egress chain
  std::vector<net::DuplexFilter*> filters_;
  // Live connections; each one's host_index is its position here, for
  // O(1) swap-and-pop removal when release_connection reaps it.
  std::vector<std::unique_ptr<tcp::TcpConnection>> connections_;
  // Released connections awaiting destruction on the next zero-delay event
  // (they may still be on the call stack when released).
  std::vector<std::unique_ptr<tcp::TcpConnection>> graveyard_;
  bool graveyard_flush_scheduled_ = false;
  sim::FlatMap<std::uint64_t, tcp::TcpConnection*> demux_;  // by conn_key
  sim::FlatMap<net::TcpPort, Listener> listeners_;
  // Observation channel, set from the const register_metrics (the registry
  // owns the histogram; recording does not change the host's logical state).
  mutable obs::Histogram* rtt_hist_ = nullptr;
  static constexpr net::TcpPort kEphemeralBase = 40'000;
  net::TcpPort next_ephemeral_ = kEphemeralBase;
  std::int64_t demux_misses_ = 0;
  std::int64_t conns_opened_ = 0;
  std::int64_t conns_released_ = 0;
  obs::FlightRecorder* trace_ = nullptr;
};

}  // namespace acdc::host
