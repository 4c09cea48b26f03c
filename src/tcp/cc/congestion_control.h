// Pluggable congestion control for the tenant TCP stack, mirroring the shape
// of Linux's `tcp_congestion_ops` (the paper's point in §2.2: CC is a small,
// modular piece of the stack that is easy to port).
//
// The connection drives the algorithm:
//  - on_ack() for every ACK that advances snd_una (window growth phase);
//  - ssthresh_after_loss()/ssthresh_after_ecn() when the connection reacts
//    to a loss or an ECN-Echo (multiplicative decrease target, in packets);
//  - on_rto() after a retransmission timeout.
// cwnd/ssthresh are kept in packets (MSS units) as in Linux, stored as
// doubles so per-ACK fractional increments need no separate counter.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>

#include "sim/time.h"
#include "tcp/cc/cc_id.h"

namespace acdc::tcp {

struct CcState {
  double cwnd = 10.0;       // congestion window, packets
  double ssthresh = 1e12;   // slow-start threshold, packets
  std::uint32_t mss = 1448; // payload bytes per segment
  sim::Time srtt = 0;       // smoothed RTT (filled in by the connection)
  sim::Time min_rtt = 0;    // lowest RTT observed
  sim::Time now = 0;        // virtual time of the current event

  bool in_slow_start() const { return cwnd < ssthresh; }
  double cwnd_bytes() const { return cwnd * mss; }
};

// Measurements delivered with each window-advancing ACK.
struct AckSample {
  std::int64_t acked_bytes = 0;
  int acked_packets = 0;
  sim::Time rtt = 0;  // 0 when no valid sample (retransmitted segment)
  bool ece = false;   // ECN-Echo seen on this ACK
  // Packets in flight after this ACK (for algorithms that are app-limited
  // aware; 0 when unknown).
  int in_flight = 0;
};

class CongestionControl {
 public:
  virtual ~CongestionControl() = default;

  virtual void init(CcState& s) { (void)s; }

  // Window growth on ACKs. The default implements Reno slow start and
  // congestion avoidance, which several algorithms reuse.
  virtual void on_ack(CcState& s, const AckSample& ack);

  // Multiplicative-decrease target (packets) when entering loss recovery.
  virtual double ssthresh_after_loss(const CcState& s) = 0;

  // Decrease target when reacting to ECN; classic ECN treats it like loss.
  virtual double ssthresh_after_ecn(const CcState& s) {
    return ssthresh_after_loss(s);
  }

  // Called when the connection actually performed a window reduction
  // (entered recovery or CWR), so algorithms can reset epoch state.
  virtual void on_window_reduction(CcState& s) { (void)s; }

  // Full window collapse after RTO.
  virtual void on_rto(CcState& s) { (void)s; }

  static constexpr double kMinCwnd = 2.0;

 protected:
  static void reno_increase(CcState& s, const AckSample& ack);
};

using CcFactory = std::unique_ptr<CongestionControl> (*)();

// The algorithm registry: every CcId maps to a factory, so this never
// returns nullptr. Names are parsed into CcId at the CLI edge only
// (tcp::parse_cc_id in tcp/cc/cc_id.h).
std::unique_ptr<CongestionControl> make_congestion_control(CcId id);

}  // namespace acdc::tcp
