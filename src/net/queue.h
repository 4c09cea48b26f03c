// A port's egress queue: byte accounting, drop/mark counters, and the
// DCTCP-style step marking configured on the paper's switches (§5 "In DCTCP
// and AC/DC, WRED/ECN is configured on the switches"). A packet that
// arrives at a queue holding at least K bytes is CE-marked when it is
// ECN-capable (ECT) and DROPPED otherwise; that asymmetry is the
// ECN-coexistence problem of Figs. 15/16.
#pragma once

#include <cstdint>
#include <string>

#include "net/packet.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "sim/fifo.h"

namespace acdc::net {

struct QueueStats {
  std::int64_t enqueued_packets = 0;
  std::int64_t enqueued_bytes = 0;
  std::int64_t dequeued_packets = 0;
  std::int64_t dequeued_bytes = 0;
  std::int64_t dropped_packets = 0;
  std::int64_t dropped_bytes = 0;
  std::int64_t marked_packets = 0;  // CE marks applied by AQM
  std::int64_t peak_bytes = 0;      // occupancy high-watermark

  // Folds one queue's stats into a switch or fabric total: the enqueue,
  // drop and mark counters add and peak_bytes takes the maximum. The
  // dequeue counters stay out; no total reads them.
  void fold(const QueueStats& s) {
    enqueued_packets += s.enqueued_packets;
    enqueued_bytes += s.enqueued_bytes;
    dropped_packets += s.dropped_packets;
    dropped_bytes += s.dropped_bytes;
    marked_packets += s.marked_packets;
    if (s.peak_bytes > peak_bytes) peak_bytes = s.peak_bytes;
  }

  double drop_rate() const {
    const std::int64_t offered = enqueued_packets + dropped_packets;
    return offered == 0 ? 0.0
                        : static_cast<double>(dropped_packets) /
                              static_cast<double>(offered);
  }
};

// A shared memory pool, modelling a switch ASIC's shared packet buffer with
// dynamic threshold admission (Broadcom-style, alpha = 1): a queue may grow
// while queue_bytes < capacity - total_used.
class SharedBufferPool {
 public:
  explicit SharedBufferPool(std::int64_t capacity_bytes)
      : capacity_(capacity_bytes) {}

  bool admit(std::int64_t queue_bytes, std::int64_t packet_bytes) const {
    return used_ + packet_bytes <= capacity_ && queue_bytes < capacity_ - used_;
  }

  void on_enqueue(std::int64_t bytes) { used_ += bytes; }
  void on_dequeue(std::int64_t bytes) { used_ -= bytes; }

  std::int64_t used_bytes() const { return used_; }
  std::int64_t capacity_bytes() const { return capacity_; }

 private:
  std::int64_t capacity_;
  std::int64_t used_ = 0;
};

class Queue {
 public:
  // `capacity_bytes` caps the queue (0: only a shared pool bounds it);
  // `mark_threshold_bytes` is the marking threshold K (0: never marks).
  explicit Queue(std::int64_t capacity_bytes,
                 std::int64_t mark_threshold_bytes = 0)
      : capacity_(capacity_bytes), mark_threshold_(mark_threshold_bytes) {}

  // Takes ownership; returns false (and drops) when the packet is not
  // admitted, or is a non-ECT packet arriving at K bytes or more.
  bool enqueue(PacketPtr packet);

  // Pops the head packet (nullptr when empty). `wire_bytes`, when given,
  // receives its wire size as computed at enqueue: nothing changes a
  // queued packet's size.
  PacketPtr dequeue(std::int64_t* wire_bytes = nullptr);

  bool empty() const { return packets_.empty(); }
  std::int64_t byte_length() const { return bytes_; }
  std::size_t packet_length() const { return packets_.size(); }
  const QueueStats& stats() const { return stats_; }

  // Optional shared pool; admission then also requires pool capacity.
  void set_shared_pool(SharedBufferPool* pool) { pool_ = pool; }

  // Flight-recorder hook: enqueue/drop/mark events go through `tap`
  // (typically the owning port's). Timestamps come from the packet's
  // enqueued_at stamp (set by Port::send).
  void set_tap(obs::Tap tap) { tap_ = tap; }

  // Absorbs this queue's stats into the registry as `prefix.*` counters
  // plus a live occupancy gauge.
  void register_metrics(obs::MetricsRegistry& registry,
                        const std::string& prefix) const;

 private:
  // `bytes` is the packet's wire_bytes(), computed once by enqueue().
  void accept(PacketPtr packet, std::int64_t bytes);
  void drop(const Packet& packet, std::int64_t bytes);

  // A queued packet with its wire size, so dequeue() need not recompute it.
  struct Queued {
    PacketPtr packet;
    std::int64_t wire_bytes;
  };

  std::int64_t capacity_;
  std::int64_t mark_threshold_;
  sim::Fifo<Queued> packets_;
  std::int64_t bytes_ = 0;
  QueueStats stats_;
  SharedBufferPool* pool_ = nullptr;
  obs::Tap tap_;
};

}  // namespace acdc::net
