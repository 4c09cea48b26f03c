// Typed, timestamped datapath trace events — the unit of the flight
// recorder. One fixed-size POD per event: no heap, no strings on the hot
// path. Component identity is an interned id (FlightRecorder::register_
// source); flow identity is the raw 4-tuple (zero when the event is not
// flow-scoped); the rest of the payload is two integers and a double whose
// meaning per type is given by event_meta().
//
// This layer depends only on sim/time.h so every other layer (net, tcp,
// acdc, host, exp) can emit events without dependency cycles.
#pragma once

#include <cstdint>

#include "sim/time.h"

namespace acdc::obs {

enum class EventType : std::uint8_t {
  // ---- AC/DC vSwitch (sender module, §3.1/§3.3) ----
  kWindowEnforced = 0,  // RWND computed for one ACK (Figs. 9/10)
  kAlphaUpdate,         // DCTCP EWMA moved (Fig. 5)
  kCwndUpdate,          // virtual CC window changed on an ACK
  kPolicedDrop,         // egress segment beyond window + slack (§3.3)
  kTimeoutInferred,     // inactivity timer fired for a stalled flow (§3.1)
  kDupackInjected,      // §3.3 vSwitch-generated duplicate ACKs
  kWindowUpdateInjected,  // §3.3 vSwitch-generated window update
  // ---- AC/DC vSwitch (receiver module, §3.2) ----
  kPackAttached,  // feedback piggybacked on a tenant ACK
  kFackEmitted,   // feedback sent as a fake ACK
  kFackConsumed,  // fake ACK absorbed at the sender side
  kEcnStrip,      // congestion mark hidden from the VM
  // ---- Fabric ----
  kEcnMark,         // AQM CE-marked a packet (WRED/ECN)
  kQueueEnqueue,    // packet admitted; payload carries occupancy after
  kQueueDrop,       // packet rejected (tail or WRED drop)
  kQueueOccupancy,  // occupancy sample after a dequeue
  // ---- Tenant TCP stack ----
  kConnState,    // connection state-machine transition
  kTcpCwnd,      // host-stack cwnd/ssthresh moved
  // ---- Per-packet forensic taps (delay attribution) ----
  // Every transmitted TCP segment carries a deterministic nonzero uid; the
  // forensics analyzer (src/forensics/) joins the tap events below on that
  // uid to decompose end-to-end latency. vSwitch-crafted packets keep uid 0
  // and are invisible to these taps.
  kPktOrigin,     // TCP handed a segment to the datapath (a=uid, b=payload)
  kPktRetx,       // segment is a retransmission (a=uid, b=wait_ns, x=rto?)
  kTcpSendStall,  // sender unblocked after a window stall (a=ns, b=cause)
  kPktTxStart,    // serialization began (a=uid, b=ser_ns, x=queue_wait_ns)
  kPktDrop,       // packet with a uid dropped at a queue (a=uid)
  kPktDeliver,    // packet reached the destination NIC (a=uid, b=payload)
  kRwndClamped,   // vSwitch lowered an ACK's advertised window (§3.1)
  kCount,         // sentinel: number of event types
};

// kTcpSendStall `b` payload: which limit blocked the sender while data was
// pending. kStallRwnd is the AC/DC clamp channel — the vSwitch enforces its
// virtual window by shrinking the RWND the sender's stack sees.
enum class StallCause : std::int64_t {
  kCwnd = 0,  // congestion window (or recovery state) was the binding limit
  kRwnd = 1,  // peer receive window — vSwitch clamp when AC/DC is enforcing
  kGate = 2,  // host tx gate (TSQ-style backpressure from the NIC queue)
};

// Export-time naming: the event name plus a label for each payload field
// (nullptr = field unused by this type).
struct EventMeta {
  const char* name;
  const char* a;
  const char* b;
  const char* x;
};

const EventMeta& event_meta(EventType type);

// A flow's identity as events carry it: the raw 4-tuple, all zero for an
// event that is not flow-scoped.
struct Flow {
  std::uint32_t src_ip = 0;
  std::uint32_t dst_ip = 0;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
};

struct TraceEvent {
  sim::Time t = 0;
  EventType type = EventType::kWindowEnforced;
  std::uint32_t source = 0;  // interned component name; 0 = unattributed
  // Flow identity (all-zero when not flow-scoped).
  std::uint32_t src_ip = 0;
  std::uint32_t dst_ip = 0;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  // Type-specific payload; semantics per field from event_meta().
  std::int64_t a = 0;
  std::int64_t b = 0;
  double x = 0.0;

  bool flow_scoped() const {
    return src_ip != 0 || dst_ip != 0 || src_port != 0 || dst_port != 0;
  }
};

}  // namespace acdc::obs
