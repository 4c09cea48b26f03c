#include "net/port.h"

#include <utility>

#include "net/pcap.h"
#include "sim/check.h"
#include "sim/hash.h"

namespace acdc::net {

std::uint64_t Port::delivery_tie_key(const Packet& packet) {
  // FNV-1a over the packet's invariant identity. uid alone is not enough:
  // vSwitch-crafted packets (FACKs, injected dupACKs) keep uid 0.
  const std::uint64_t addrs =
      (std::uint64_t{packet.ip.src} << 32) | packet.ip.dst;
  const std::uint64_t ports_seq = (std::uint64_t{packet.tcp.src_port} << 48) |
                                  (std::uint64_t{packet.tcp.dst_port} << 32) |
                                  packet.tcp.seq;
  const std::uint64_t ack_len =
      (std::uint64_t{packet.tcp.ack_seq} << 32) |
      static_cast<std::uint64_t>(packet.payload_bytes);
  std::uint64_t h = sim::fnv1a_word(sim::kFnvOffsetBasis, packet.uid);
  h = sim::fnv1a_word(h, addrs);
  h = sim::fnv1a_word(h, ports_seq);
  return sim::fnv1a_word(h, ack_len);
}

namespace {

// A local delivery event: hands the packet to the peer (or returns it to
// the pool when the port has none). Trivially copyable, and the packet is
// its tie-key source: nothing touches a packet in flight. Discarded unfired
// (the simulator torn down first), it returns the packet to the pool.
struct Delivery {
  PacketSink* peer;
  Packet* packet;

  void operator()() const {
    if (peer != nullptr) {
      peer->receive(PacketPtr(packet));
    } else {
      drop();
    }
  }
  std::uint64_t tie_key() const { return Port::delivery_tie_key(*packet); }
  void drop() const { PacketDeleter{}(packet); }
};

}  // namespace

Port::Port(sim::Simulator* sim, std::string name, sim::Rate rate,
           sim::Time propagation_delay, std::int64_t queue_capacity_bytes,
           std::int64_t mark_threshold_bytes)
    : sim_(sim),
      name_(std::move(name)),
      rate_(rate),
      propagation_delay_(propagation_delay),
      queue_(queue_capacity_bytes, mark_threshold_bytes),
      tx_done_(sim) {
  // A zero rate would divide by zero in sim::transmission_time on the first
  // packet.
  ACDC_CHECK(rate_ > 0, "port %s: link rate must be positive, rate=%lld",
             name_.c_str(), static_cast<long long>(rate_));
}

void Port::check_idle(const char* what) const {
  ACDC_CHECK(tx_done_.passed(),
             "port %s: %s while transmitting (busy until %lld ns, now %lld)",
             name_.c_str(), what, static_cast<long long>(tx_done_.at()),
             static_cast<long long>(sim_->now()));
}

void Port::send(PacketPtr packet) {
  packet->enqueued_at = sim_->now();
  if (!queue_.enqueue(std::move(packet))) return;
  if (tx_done_.passed()) {
    start_transmission();
  } else {
    // The packet waits behind the one on the wire, so the completion now
    // has work: it enters the queue at its reserved position.
    tx_done_.schedule([this] { start_transmission(); });
  }
}

void Port::set_trace(obs::FlightRecorder* recorder) {
  tap_ = obs::Tap(recorder, name_);
  queue_.set_tap(tap_);
}

void Port::register_metrics(obs::MetricsRegistry& registry) const {
  registry.register_counter(name_ + ".tx_packets", &transmitted_packets_);
  registry.register_counter(name_ + ".tx_bytes", &transmitted_bytes_);
  queue_.register_metrics(registry, name_);
  sojourn_ns_ = &registry.histogram(name_ + ".sojourn_ns");
}

void Port::start_transmission() {
  // Only reached with a packet waiting: from send(), or from a completion
  // that was scheduled because one was.
  std::int64_t wire_bytes = 0;
  PacketPtr packet = queue_.dequeue(&wire_bytes);
  ACDC_CHECK(packet != nullptr, "port %s: transmission started at %lld ns "
             "with an empty queue", name_.c_str(),
             static_cast<long long>(sim_->now()));
  const sim::Time tx = sim::transmission_time(wire_bytes, rate_);
  ++transmitted_packets_;
  transmitted_bytes_ += wire_bytes;
  if (telemetry_ != nullptr) {
    telemetry_->stamp(*packet, queue_.byte_length(), sim_->now());
  }

  // Observation taps at transmission start: queue sojourn for the
  // histogram, one trace event per dequeue, and the pcap bridge. The
  // forensic tx tap supersedes the occupancy sample for uid-stamped
  // packets — never both, so full-tap tracing does not double the dequeue
  // event volume. The tap carries the queue wait in x (the same quantity
  // the sojourn histogram records); occupancy for tapped traffic comes
  // from the queue_bytes gauges on the metrics clock.
  if (sojourn_ns_ != nullptr) {
    sojourn_ns_->record(sim_->now() - packet->enqueued_at);
  }
  if (tap_) {
    if (packet->uid != 0) {
      tap_.emit(obs::EventType::kPktTxStart, sim_->now(), packet->flow(),
                static_cast<std::int64_t>(packet->uid), tx,
                static_cast<double>(sim_->now() - packet->enqueued_at));
    } else {
      tap_.emit(obs::EventType::kQueueOccupancy, sim_->now(), {},
                queue_.byte_length(),
                static_cast<std::int64_t>(queue_.packet_length()));
    }
  }
  if (pcap_ != nullptr) pcap_->write(*packet, sim_->now());

  // Deliver at tx + propagation; free the transmitter at tx. A remote peer
  // (cross-shard link) takes the delivery time with the packet instead of a
  // local event. Both paths order same-tick arrivals at the receiver by the
  // content-derived tie key, so either engine runs them identically: the
  // remote path hashes it now, while a local delivery carries the packet
  // and the queue hashes it only if another event shares its tick. The
  // delivery takes its insertion seq before the completion reserves one;
  // same-tick ties depend on that order. The completion is scheduled only
  // once a packet waits behind this one (here, or in send()).
  if (remote_peer_ != nullptr) {
    const std::uint64_t key = delivery_tie_key(*packet);
    remote_peer_->deliver(packet.release(),
                          sim_->now() + tx + propagation_delay_, key);
  } else {
    sim_->schedule_keyed(tx + propagation_delay_,
                         Delivery{peer_, packet.release()});
  }
  tx_done_.reserve(tx);
  if (!queue_.empty()) tx_done_.schedule([this] { start_transmission(); });
  if (on_drain_) on_drain_();
}

}  // namespace acdc::net
