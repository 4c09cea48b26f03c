// Datapath invariant checker: asserts the laws the AC/DC vSwitch must obey
// no matter what the scenario fuzzer throws at it. Three vantage points:
//
//  1. The flight-recorder event stream (FlightRecorder listener): window
//     enforcement bounds, alpha in [0, 1], feedback-delta sanity, legal
//     connection-state transitions, queue-event consistency, monotone
//     timestamps.
//  2. Packet taps around each host's vSwitch (DuplexFilter pairs): the
//     vSwitch only ever LOWERS the tenant's advertised RWND (§3.3), never
//     corrupts seq/ack/payload, hides PACK/FACK/ECE from the VM (§3.2/§3.3),
//     delivers data to the VM without congestion marks, and sends data out
//     ECN-capable.
//  3. End-of-run structural checks: queue byte/packet conservation
//     (enqueued == dequeued + resident), flow-table consistency
//     (snd_una <= snd_nxt mod 2^32, bounded wscale, alpha bounds), and
//     vSwitch counter cross-checks.
//
// The laws are an enforcing vSwitch's (AcdcConfig::enforce, the default).
// Violations are collected, not thrown, so a fuzz driver can report every
// broken law of a failing seed at once.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "acdc/vswitch.h"
#include "net/datapath.h"
#include "net/queue.h"
#include "net/switch.h"
#include "obs/flight_recorder.h"
#include "sim/fifo.h"

namespace acdc::testlib {

// First violations kept verbatim; the rest only counted.
inline constexpr std::size_t kMaxReportedViolations = 16;

class InvariantChecker {
 public:
  InvariantChecker() = default;
  ~InvariantChecker();

  InvariantChecker(const InvariantChecker&) = delete;
  InvariantChecker& operator=(const InvariantChecker&) = delete;

  // ---- Vantage 1: event stream ----
  void subscribe(obs::FlightRecorder& recorder);

  // ---- Vantage 2: per-host packet taps ----
  // Installed around the vSwitch (CheckedRun::attach_acdc: VM tap, vSwitch,
  // wire tap) so the wire tap sees fabric-side packets and the VM tap sees
  // what the tenant stack sees (ingress runs filters in reverse insertion
  // order). The pair shares pending-ACK state keyed on Packet::uid
  // (assigned by the wire tap) to pair each ingress ACK's pre-rewrite
  // window with its post-rewrite value.
  net::DuplexFilter* vm_tap(const std::string& host);
  net::DuplexFilter* wire_tap(const std::string& host);

  // ---- Vantage 3: end-of-run structural checks ----
  void check_flow_table(const std::string& name, vswitch::AcdcVswitch& vs);
  void check_switch(const net::Switch& sw);
  void check_queue(const std::string& name, const net::Queue& queue);
  // Every consumed FACK was sent by some peer vSwitch. Only meaningful when
  // the fabric cannot duplicate packets.
  void check_fack_balance(const std::vector<vswitch::AcdcVswitch*>& vswitches);

  // ---- Results ----
  void fail(const std::string& message);
  bool ok() const { return violation_count_ == 0; }
  const std::vector<std::string>& violations() const { return violations_; }
  std::uint64_t violation_count() const { return violation_count_; }
  std::uint64_t packets_checked() const { return packets_checked_; }

 private:
  friend class InvariantTap;

  // Pre-rewrite ACK fields captured at the wire tap, to pair with the
  // VM-side copy. FACKs and vSwitch-consumed packets never reach the VM;
  // bounded FIFO eviction keeps the map small.
  struct PendingAck {
    std::uint16_t window_raw = 0;
    std::uint32_t seq = 0;
    std::uint32_t ack_seq = 0;
    std::int64_t payload_bytes = 0;
  };
  struct HostState {
    std::unordered_map<std::uint64_t, PendingAck> pending;
    sim::Fifo<std::uint64_t> order;
  };

  void on_event(const obs::TraceEvent& ev);
  void check_conn_transition(const obs::TraceEvent& ev);
  HostState& host_state(const std::string& host);
  void on_wire_ingress(const std::string& host, HostState& state,
                       net::Packet& p);
  void on_wire_egress(const std::string& host, const net::Packet& p);
  void on_vm_ingress(const std::string& host, HostState& state,
                     const net::Packet& p);

  std::vector<std::unique_ptr<net::DuplexFilter>> taps_;
  std::map<std::string, std::unique_ptr<HostState>> hosts_;
  std::uint64_t next_uid_ = 1;
  sim::Time last_event_time_ = 0;
  std::vector<std::string> violations_;
  std::uint64_t violation_count_ = 0;
  std::uint64_t packets_checked_ = 0;
};

}  // namespace acdc::testlib
