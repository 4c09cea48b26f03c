// Output-queued switch with a shared packet buffer and per-port ECN step
// marking, modelled on the paper's testbed switches (IBM G8264: 48x10G ports
// sharing a 9MB buffer).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/packet.h"
#include "net/port.h"
#include "net/queue.h"
#include "sim/flat_map.h"
#include "sim/simulator.h"

namespace acdc::net {

struct SwitchConfig {
  std::int64_t shared_buffer_bytes = 9 * 1024 * 1024;
  // Marking threshold K of every port queue (net/queue.h). 0 disables
  // marking: plain drop-tail on the shared buffer.
  std::int64_t mark_threshold_bytes = 0;
};

class Switch : public PacketSink {
 public:
  Switch(sim::Simulator* sim, std::string name, SwitchConfig config);

  // Adds an egress port towards some neighbour. The returned Port stays
  // owned by the Switch.
  Port* add_port(sim::Rate rate, sim::Time propagation_delay);

  void add_route(IpAddr dst, Port* port);
  void set_default_route(Port* port) { default_route_ = port; }

  // ECMP: traffic with no exact route is spread over `ports` by a hash of
  // the flow's 5-tuple, so every packet of one flow takes the same path but
  // different flows may collide on one uplink (the §2.3 motivation for
  // flow-granular congestion control).
  void set_default_ecmp(std::vector<Port*> ports) {
    default_ecmp_ = std::move(ports);
  }

  void receive(PacketPtr packet) override;

  const std::string& name() const { return name_; }
  const SharedBufferPool& buffer_pool() const { return pool_; }

  // Aggregated over all port queues.
  QueueStats total_stats() const;
  std::int64_t routing_failures() const { return routing_failures_; }
  const std::vector<std::unique_ptr<Port>>& ports() const { return ports_; }

  // The simulator that runs this switch: its shard's once partitioned.
  sim::Simulator* sim() const { return sim_; }
  // Re-homes the switch and all of its ports onto a shard's simulator
  // (partitioning happens before traffic, so every port is idle).
  void rebind_simulator(sim::Simulator* sim);

  // Flight-recorder wiring for every existing and future port queue.
  void set_trace(obs::FlightRecorder* recorder);
  // `<name>.*` per-port counters plus shared-buffer pool usage.
  void register_metrics(obs::MetricsRegistry& registry) const;

 private:
  sim::Simulator* sim_;
  std::string name_;
  SwitchConfig config_;
  SharedBufferPool pool_;
  std::vector<std::unique_ptr<Port>> ports_;
  sim::FlatMap<IpAddr, Port*> routes_;
  Port* default_route_ = nullptr;
  std::vector<Port*> default_ecmp_;
  std::int64_t routing_failures_ = 0;
  obs::FlightRecorder* trace_ = nullptr;
};

}  // namespace acdc::net
