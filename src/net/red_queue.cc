#include "net/red_queue.h"

#include <utility>

namespace acdc::net {

double RedQueue::action_probability(std::int64_t queue_bytes) const {
  if (queue_bytes < config_.min_threshold_bytes) return 0.0;
  if (queue_bytes >= config_.max_threshold_bytes) return 1.0;
  const double span = static_cast<double>(config_.max_threshold_bytes -
                                          config_.min_threshold_bytes);
  const double depth =
      static_cast<double>(queue_bytes - config_.min_threshold_bytes);
  return config_.max_probability * depth / span;
}

bool RedQueue::enqueue(PacketPtr packet) {
  const std::int64_t bytes = packet->wire_bytes();
  if ((config_.capacity_bytes > 0 && bytes_ + bytes > config_.capacity_bytes) ||
      !pool_admits(bytes)) {
    drop(*packet, bytes);
    return false;
  }

  const double p = action_probability(bytes_);
  bool act = false;
  if (p >= 1.0) {
    act = true;
  } else if (p > 0.0) {
    act = rng_ != nullptr && rng_->chance(p);
  }

  if (act) {
    if (ecn_capable(packet->ip.ecn)) {
      packet->ip.ecn = Ecn::kCe;
      ++stats_.marked_packets;
      if (tap_) {
        tap_.emit(obs::EventType::kEcnMark, packet->enqueued_at,
                  packet->flow(), bytes_, bytes);
      }
    } else {
      // Non-ECT packets past the threshold are dropped (WRED drop action).
      drop(*packet, bytes);
      return false;
    }
  }
  accept(std::move(packet), bytes);
  return true;
}

}  // namespace acdc::net
