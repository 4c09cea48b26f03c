// The AC/DC vSwitch datapath: a DuplexFilter sitting between the tenant TCP
// stack and the NIC (Fig. 3). Every packet is matched against the flow
// table; the sender and receiver modules implement §3's design:
//
//   egress:  [sender] track seqs, mark ECT, police  ->
//            [receiver] attach PACK / emit FACK      -> NIC
//   ingress: [receiver] count + strip ECN            ->
//            [sender] feedback, virtual CC, RWND enforcement -> VM
//
// Both directions also take bursts (receive_burst() on ingress_in() or
// egress_in()): one software-pipelined loop warms the flow-table lines
// ahead of per-packet processing — same semantics, fewer stalls
// (DESIGN.md §14).
//
// Also hosts the periodic inactivity scan (timeout inference, §3.1), the
// flow-table garbage collector (§4) and the §3.3 flexibility features
// (vSwitch-generated window updates and duplicate ACKs).
#pragma once

#include <cstddef>
#include <memory>
#include <string>

#include "acdc/core.h"
#include "acdc/receiver_module.h"
#include "acdc/sender_module.h"
#include "net/datapath.h"
#include "sim/simulator.h"

namespace acdc::vswitch {

class AcdcVswitch : public net::DuplexFilter {
 public:
  AcdcVswitch(sim::Simulator* sim, AcdcConfig config);

  AcdcCore& core() { return core_; }
  const AcdcConfig& config() const { return core_.config; }
  PolicyEngine& policy() { return core_.policy; }
  FlowTable& flows() { return core_.table; }
  const AcdcStats& stats() const { return core_.stats; }

  // Bundled observability wiring, so a vSwitch is instrumented atomically:
  // trace events and metrics share `name`. The computed enforcement window
  // per processed ACK (Fig. 9/10 logging) is the recorder's kWindowEnforced
  // event; a listener on the recorder sees every one.
  struct ObsHooks {
    obs::FlightRecorder* recorder = nullptr;  // nullptr = tracing off
    obs::MetricsRegistry* metrics = nullptr;  // nullptr = no metrics export
    std::string name = "acdc";  // trace-source name and metrics prefix
  };
  void attach_observability(ObsHooks hooks);

  // ---- §3.3 flexibility features ----
  // Crafts a TCP window update toward the VM for data flow `key`
  // (key = the VM's data direction), advertising the current enforced
  // window without waiting for an ACK from the receiver.
  bool send_window_update(const FlowKey& key);
  // Generates `count` duplicate ACKs toward the VM to trigger its fast
  // retransmit (e.g. when the VM's RTO is much larger than AC/DC's).
  bool send_dupacks(const FlowKey& key, int count);

 protected:
  void handle_egress(net::PacketPtr packet) override;
  void handle_ingress(net::PacketPtr packet) override;
  void handle_egress_burst(net::PacketPtr* packets,
                           std::size_t count) override;
  void handle_ingress_burst(net::PacketPtr* packets,
                            std::size_t count) override;

 private:
  void ensure_timers();
  // The burst loop of both directions: runs `handle` (handle_egress or
  // handle_ingress) on `count` packets in arrival order, software-pipelined
  // behind the two prefetch stages (DESIGN.md §14). Byte-for-byte
  // equivalent to `count` single-packet deliveries — the prefetches are the
  // only difference. The simulated NIC hands packets up one at a time, so
  // only receive_burst() callers (the datapath bench, the perf probes and
  // tests) reach it.
  template <typename Handle>
  void pipeline_burst(net::PacketPtr* packets, std::size_t count,
                      Handle handle);
  // The two prefetch stages, direction-agnostic because both directions
  // probe the same two keys — the packet's own for data tracking, the
  // reversed one for ACK processing. Stage 1 (issued furthest ahead) warms
  // the slot words both keys will probe; stage 2 scans them to the
  // resolved slot and warms the hot record its word names
  // (FlowTable::prefetch).
  void prefetch_stage1(const net::Packet& p) const;
  void prefetch_stage2(const net::Packet& p) const;
  void run_inactivity_scan();
  void run_gc();
  // Absorbs AcdcStats plus a live flow-table-size gauge into the registry
  // as `prefix.*` (attach_observability's metrics half).
  void register_metrics(obs::MetricsRegistry& registry,
                        const std::string& prefix) const;
  net::PacketPtr craft_ack_toward_vm(const FlowRef& f) const;

  AcdcCore core_;
  SenderModule sender_;
  ReceiverModule receiver_;
  bool scan_armed_ = false;
  bool gc_armed_ = false;
};

}  // namespace acdc::vswitch
