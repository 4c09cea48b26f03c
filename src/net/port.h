// A Port is a unidirectional transmitter: an egress queue drained at link
// rate, followed by a fixed propagation delay to the peer's receive side.
// Full-duplex links are a pair of Ports, one per direction.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "net/packet.h"
#include "net/queue.h"
#include "net/telemetry.h"
#include "sim/reserved_event.h"
#include "sim/simulator.h"

namespace acdc::net {

class PcapWriter;

// Boundary for links that leave this simulator shard: instead of scheduling
// the delivery locally, the transmitting Port hands the raw packet plus its
// absolute delivery time to the RemotePeer (a cross-shard mailbox adapter,
// see net/shard_link.h). Ownership of the packet transfers on deliver().
class RemotePeer {
 public:
  virtual ~RemotePeer() = default;
  // `key` is the delivery's tie key (see Port::delivery_tie_key); the
  // destination shard schedules the delivery with it so same-tick arrivals
  // order exactly as they would on the serial engine.
  virtual void deliver(Packet* packet, sim::Time at, std::uint64_t key) = 0;
};

// Each transmission costs one event, the delivery, while the link is idle:
// the transmit-complete event is only reserved (sim::ReservedEvent), and
// enters the event queue when a packet waits behind the one on the wire.
class Port : public PacketSink {
 public:
  // `rate` must be positive (checked in every build). The egress queue is
  // built from `queue_capacity_bytes` (0: only a shared pool bounds it) and
  // the marking threshold `mark_threshold_bytes` (0: never marks).
  Port(sim::Simulator* sim, std::string name, sim::Rate rate,
       sim::Time propagation_delay, std::int64_t queue_capacity_bytes,
       std::int64_t mark_threshold_bytes = 0);

  void set_peer(PacketSink* peer) { peer_ = peer; }
  // Routes deliveries through a cross-shard mailbox instead of `peer`;
  // nullptr restores local delivery.
  void set_remote_peer(RemotePeer* remote) { remote_peer_ = remote; }
  // Re-homes the port onto a shard's simulator. Only legal while idle (no
  // transmission in progress), i.e. during partitioning before any traffic.
  void rebind_simulator(sim::Simulator* sim) {
    check_idle("rebind_simulator");
    sim_ = sim;
    tx_done_.rebind_simulator(sim);
  }
  // Adjusts the propagation delay; only legal while idle, i.e. during
  // topology construction (per-link skew, exp::Scenario::attach).
  void set_propagation_delay(sim::Time delay) {
    check_idle("set_propagation_delay");
    propagation_delay_ = delay;
  }

  // Queues the packet for transmission (the queue may drop or mark it).
  void receive(PacketPtr packet) override { send(std::move(packet)); }
  void send(PacketPtr packet);

  Queue& queue() { return queue_; }
  const Queue& queue() const { return queue_; }
  const std::string& name() const { return name_; }
  sim::Rate rate() const { return rate_; }
  sim::Time propagation_delay() const { return propagation_delay_; }

  std::int64_t transmitted_packets() const { return transmitted_packets_; }
  std::int64_t transmitted_bytes() const { return transmitted_bytes_; }

  // Canonical same-timestamp ordering key for a packet-delivery event,
  // derived from packet content (addressing, sequence numbers, uid) — never
  // from engine state. Two packets delivered to one simulator on the same
  // tick order by this key on both the serial and the sharded engine, which
  // is what keeps the two engines' event streams identical: insertion-order
  // tie-breaking necessarily differs across engines (cross-shard deliveries
  // are inserted at mailbox-drain time, not at their causal schedule time).
  static std::uint64_t delivery_tie_key(const Packet& packet);

  // Invoked after each dequeue; lets a host implement TSQ-style
  // back-pressure (resume blocked senders when the TX queue drains).
  void set_drain_callback(std::function<void()> fn) {
    on_drain_ = std::move(fn);
  }

  // Flight-recorder hook: wires the egress queue (enqueue/drop/mark events)
  // and samples occupancy after each dequeue, all attributed to this port's
  // name.
  void set_trace(obs::FlightRecorder* recorder);
  // Registers `<name>.tx_*` counters plus the queue's stats and occupancy,
  // and attaches a `<name>.sojourn_ns` histogram fed at each dequeue.
  void register_metrics(obs::MetricsRegistry& registry) const;

  // Pcap tap: every packet this port serialises is appended to `pcap` at
  // its transmission-start time. nullptr detaches. The writer must outlive
  // the port's last transmission.
  void set_pcap(PcapWriter* pcap) { pcap_ = pcap; }

  // INT telemetry: once enabled, each data packet is stamped at dequeue
  // with this port's queue depth / rate / fair share (net/telemetry.h).
  // Off by default — the datapath pays only a null check.
  void enable_telemetry() {
    telemetry_ = std::make_unique<TelemetrySampler>(rate_);
  }
  TelemetrySampler* telemetry() const { return telemetry_.get(); }

 private:
  void start_transmission();
  // Aborts (in every build) unless the transmitter is free.
  void check_idle(const char* what) const;

  sim::Simulator* sim_;
  std::string name_;
  sim::Rate rate_;
  sim::Time propagation_delay_;
  Queue queue_;
  PacketSink* peer_ = nullptr;
  RemotePeer* remote_peer_ = nullptr;
  std::function<void()> on_drain_;
  obs::Tap tap_;
  PcapWriter* pcap_ = nullptr;
  std::unique_ptr<TelemetrySampler> telemetry_;
  // Observation channel, set from the const register_metrics (the registry
  // owns the histogram; recording does not change the port's logical state).
  mutable obs::Histogram* sojourn_ns_ = nullptr;
  // Frees the transmitter when the packet on the wire is out; passed()
  // while idle.
  sim::ReservedEvent tx_done_;
  std::int64_t transmitted_packets_ = 0;
  std::int64_t transmitted_bytes_ = 0;
};

}  // namespace acdc::net
