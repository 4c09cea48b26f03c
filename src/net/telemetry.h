// In-band network telemetry sampled at switch egress ports (DESIGN.md §13).
//
// When enabled on a Port, every data-bearing packet is stamped at dequeue
// with the egress queue depth, the port's drain rate and a per-flow fair
// share derived from an epoch-based count of distinct flows. The stamp is a
// model-level field on net::Packet (a real deployment would use an INT shim
// header); the receiver-side vSwitch records the latest stamp per flow,
// echoes it to the sender inside the extended PACK/FACK option, and strips
// it before the VM so telemetry never leaks past the vSwitch boundary.
//
// Two virtual CCs consume the stamps: virtual PowerTCP (arxiv 2112.14309)
// differentiates queue depth against the timestamp for its power signal,
// and the switch-assisted fair-rate controller (arxiv 2106.14100) converts
// fair_bytes_per_ms into an RWND clamp.
//
// Multi-hop merge keeps the bottleneck view: the hop with the largest queue
// drain time (qlen / rate) wins the qlen/rate/timestamp words, and the fair
// share is the minimum across hops.
#pragma once

#include <cstdint>
#include <unordered_set>

#include "net/packet.h"
#include "sim/time.h"

namespace acdc::net {

class TelemetrySampler {
 public:
  explicit TelemetrySampler(sim::Rate rate);

  // Stamps `p` with this port's telemetry at time `now` (called by Port at
  // transmission start, after the dequeue). `queue_bytes` is the egress
  // backlog left behind the departing packet. Pure-control packets
  // (payload == 0) are left untouched: the feedback channel only echoes
  // telemetry observed on the data path.
  void stamp(Packet& p, std::int64_t queue_bytes, sim::Time now);

  // Flows counted as active right now (≥ 1 once any flow has been seen).
  std::int64_t active_flows() const;
  std::uint32_t fair_share_bytes_per_ms() const;
  std::uint32_t line_rate_bytes_per_ms() const { return rate_bpms_; }

 private:
  void roll_epoch(sim::Time now);

  std::uint32_t rate_bpms_;  // line rate in bytes per millisecond
  std::unordered_set<std::uint64_t> seen_;  // flow hashes, current epoch
  std::size_t last_epoch_flows_ = 0;
  sim::Time epoch_end_ = 0;
};

}  // namespace acdc::net
