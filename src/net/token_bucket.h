// Token-bucket shaper used to reproduce Fig. 2: per-VM rate limiting alone
// does not stop an aggressive stack from filling switch buffers.
#pragma once

#include <cstdint>

#include "net/datapath.h"
#include "net/packet.h"
#include "sim/fifo.h"
#include "sim/simulator.h"

namespace acdc::net {

class TokenBucketShaper : public DuplexFilter {
 public:
  // `rate` and `burst_bytes` must be positive. `backlog_limit_bytes` caps
  // the shaper's queue (a qdisc length); 0 means unbounded.
  TokenBucketShaper(sim::Simulator* sim, sim::Rate rate,
                    std::int64_t burst_bytes,
                    std::int64_t backlog_limit_bytes = 0);

  std::int64_t backlog_bytes() const { return backlog_bytes_; }
  std::int64_t dropped_packets() const { return dropped_packets_; }

 protected:
  void handle_egress(PacketPtr packet) override;

 private:
  // A queued packet with its wire size, computed once on arrival.
  struct Queued {
    PacketPtr packet;
    std::int64_t wire_bytes;
  };

  void refill();
  void drain();

  sim::Simulator* sim_;
  sim::Rate rate_;
  std::int64_t burst_bytes_;
  std::int64_t backlog_limit_bytes_;
  std::int64_t dropped_packets_ = 0;
  double tokens_bytes_;
  sim::Time last_refill_ = 0;
  sim::Fifo<Queued> backlog_;
  std::int64_t backlog_bytes_ = 0;
  bool drain_scheduled_ = false;
};

}  // namespace acdc::net
