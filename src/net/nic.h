// Host NIC: an egress transmit port plus the ingress handoff to the host's
// datapath. Each arriving packet goes up inside its own delivery event: one
// link feeds a NIC, and its deliveries come at strictly increasing times, so
// there is no same-tick batch to coalesce.
#pragma once

#include <string>

#include "net/packet.h"
#include "net/port.h"
#include "net/queue.h"
#include "sim/simulator.h"

namespace acdc::net {

class Nic : public PacketSink {
 public:
  Nic(sim::Simulator* sim, std::string name, sim::Rate rate,
      sim::Time propagation_delay, std::int64_t tx_queue_bytes);

  // Network -> host direction.
  void receive(PacketPtr packet) override;

  // Host -> network direction (bottom of the datapath chain).
  PacketSink& tx() { return tx_port_; }
  Port& tx_port() { return tx_port_; }

  // Where ingress packets are delivered (top of the ingress datapath).
  void set_up(PacketSink* up) { up_ = up; }

  std::int64_t received_packets() const { return received_packets_; }

  // Re-homes the NIC (and its TX port) onto a shard's simulator.
  void rebind_simulator(sim::Simulator* sim) {
    sim_ = sim;
    tx_port_.rebind_simulator(sim);
  }

  // Flight-recorder / metrics wiring (covers the TX port and its queue,
  // plus a `<name>:rx` source for the forensic delivery tap).
  void set_trace(obs::FlightRecorder* recorder);
  void register_metrics(obs::MetricsRegistry& registry,
                        const std::string& prefix) const;

 private:
  sim::Simulator* sim_;
  std::string name_;
  Port tx_port_;
  PacketSink* up_ = nullptr;
  obs::Tap rx_tap_;  // "<name>:rx", the forensic delivery tap
  std::int64_t received_packets_ = 0;
  std::int64_t received_bytes_ = 0;
};

}  // namespace acdc::net
