#include "net/queue.h"

#include <utility>

namespace acdc::net {

bool Queue::enqueue(PacketPtr packet) {
  const std::int64_t bytes = packet->wire_bytes();
  if ((capacity_ > 0 && bytes_ + bytes > capacity_) ||
      (pool_ != nullptr && !pool_->admit(bytes_, bytes))) {
    drop(*packet, bytes);
    return false;
  }
  if (mark_threshold_ > 0 && bytes_ >= mark_threshold_) {
    if (!ecn_capable(packet->ip.ecn)) {
      // Non-ECT packets past K are dropped (WRED drop action).
      drop(*packet, bytes);
      return false;
    }
    packet->ip.ecn = Ecn::kCe;
    ++stats_.marked_packets;
    if (tap_) {
      tap_.emit(obs::EventType::kEcnMark, packet->enqueued_at,
                packet->flow(), bytes_, bytes);
    }
  }
  accept(std::move(packet), bytes);
  return true;
}

PacketPtr Queue::dequeue(std::int64_t* wire_bytes) {
  if (packets_.empty()) return nullptr;
  PacketPtr p = std::move(packets_.front().packet);
  const std::int64_t bytes = packets_.front().wire_bytes;
  packets_.pop_front();
  bytes_ -= bytes;
  ++stats_.dequeued_packets;
  stats_.dequeued_bytes += bytes;
  if (pool_ != nullptr) pool_->on_dequeue(bytes);
  if (wire_bytes != nullptr) *wire_bytes = bytes;
  return p;
}

void Queue::accept(PacketPtr packet, std::int64_t bytes) {
  bytes_ += bytes;
  if (pool_ != nullptr) pool_->on_enqueue(bytes);
  ++stats_.enqueued_packets;
  stats_.enqueued_bytes += bytes;
  if (bytes_ > stats_.peak_bytes) stats_.peak_bytes = bytes_;
  // uid-stamped packets emit nothing at admission: their queue wait rides
  // on kPktTxStart (tx-start minus enqueued_at, the sojourn-histogram
  // quantity), so a per-hop enqueue event would only repeat what the tx
  // tap already proves. Untapped traffic keeps the enqueue event.
  if (tap_ && packet->uid == 0) {
    tap_.emit(obs::EventType::kQueueEnqueue, packet->enqueued_at,
              packet->flow(), bytes_, bytes);
  }
  packets_.push_back(Queued{std::move(packet), bytes});
}

void Queue::drop(const Packet& packet, std::int64_t bytes) {
  ++stats_.dropped_packets;
  stats_.dropped_bytes += bytes;
  if (tap_) {
    if (packet.uid != 0) {
      tap_.emit(obs::EventType::kPktDrop, packet.enqueued_at, packet.flow(),
                static_cast<std::int64_t>(packet.uid), bytes_,
                static_cast<double>(bytes));
    } else {
      tap_.emit(obs::EventType::kQueueDrop, packet.enqueued_at,
                packet.flow(), bytes_, bytes);
    }
  }
}

void Queue::register_metrics(obs::MetricsRegistry& registry,
                             const std::string& prefix) const {
  registry.register_counter(prefix + ".enqueued_packets",
                            &stats_.enqueued_packets);
  registry.register_counter(prefix + ".dropped_packets",
                            &stats_.dropped_packets);
  registry.register_counter(prefix + ".marked_packets",
                            &stats_.marked_packets);
  registry.register_gauge(prefix + ".queue_bytes", [this] {
    return static_cast<double>(bytes_);
  });
}

}  // namespace acdc::net
