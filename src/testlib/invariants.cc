#include "testlib/invariants.h"

#include <sstream>

#include "tcp/seq.h"
#include "tcp/tcp_connection.h"

namespace acdc::testlib {

namespace {

// Bounded pending-ACK window per host; FACKs are recorded at the wire tap
// but consumed by the vSwitch, so stale entries must age out.
constexpr std::size_t kMaxPendingAcks = 1024;

// kWindowEnforced floor sanity: the enforced window may exceed cwnd only up
// to the min-RWND floor (one MSS; bounded by the largest MTU we run).
constexpr std::int64_t kMinRwndFloorBytes = 9000;

bool in_unit_interval(double x) { return x >= 0.0 && x <= 1.0; }

const char* ecn_name(net::Ecn e) {
  switch (e) {
    case net::Ecn::kNotEct:
      return "NotEct";
    case net::Ecn::kEct1:
      return "ECT(1)";
    case net::Ecn::kEct0:
      return "ECT(0)";
    case net::Ecn::kCe:
      return "CE";
  }
  return "?";
}

}  // namespace

// Tap around the vSwitch. The wire-side tap captures fabric-facing packets
// (pre-rewrite on ingress, post-vSwitch on egress); the VM-side tap sees
// exactly what the tenant stack sees.
class InvariantTap : public net::DuplexFilter {
 public:
  InvariantTap(InvariantChecker* checker, std::string host, bool vm_side)
      : checker_(checker), host_(std::move(host)), vm_side_(vm_side) {}

 protected:
  void handle_egress(net::PacketPtr packet) override {
    if (!vm_side_) checker_->on_wire_egress(host_, *packet);
    send_down(std::move(packet));
  }
  void handle_ingress(net::PacketPtr packet) override {
    InvariantChecker::HostState& state = checker_->host_state(host_);
    if (vm_side_) {
      checker_->on_vm_ingress(host_, state, *packet);
    } else {
      checker_->on_wire_ingress(host_, state, *packet);
    }
    send_up(std::move(packet));
  }

 private:
  InvariantChecker* checker_;
  std::string host_;
  bool vm_side_;
};

InvariantChecker::~InvariantChecker() = default;

void InvariantChecker::subscribe(obs::FlightRecorder& recorder) {
  recorder.add_listener(
      [this](const obs::TraceEvent& ev) { on_event(ev); });
}

net::DuplexFilter* InvariantChecker::vm_tap(const std::string& host) {
  taps_.push_back(
      std::make_unique<InvariantTap>(this, host, /*vm_side=*/true));
  return taps_.back().get();
}

net::DuplexFilter* InvariantChecker::wire_tap(const std::string& host) {
  taps_.push_back(
      std::make_unique<InvariantTap>(this, host, /*vm_side=*/false));
  return taps_.back().get();
}

void InvariantChecker::fail(const std::string& message) {
  ++violation_count_;
  if (violations_.size() < kMaxReportedViolations) {
    violations_.push_back(message);
  }
}

InvariantChecker::HostState& InvariantChecker::host_state(
    const std::string& host) {
  std::unique_ptr<HostState>& slot = hosts_[host];
  if (!slot) slot = std::make_unique<HostState>();
  return *slot;
}

// ---------------------------------------------------------- event stream

void InvariantChecker::on_event(const obs::TraceEvent& ev) {
  std::ostringstream msg;
  const char* name = obs::event_meta(ev.type).name;

  if (ev.t < last_event_time_) {
    msg << name << ": timestamp went backwards (" << ev.t << " < "
        << last_event_time_ << ")";
    fail(msg.str());
    return;
  }
  last_event_time_ = ev.t;

  switch (ev.type) {
    case obs::EventType::kWindowEnforced:
      // a = enforced RWND, b = virtual cwnd, x = alpha. The window is
      // min(cwnd, cap) raised to the min-RWND floor, so it may exceed cwnd
      // only up to that floor.
      if (ev.a < 1) {
        msg << name << ": enforced window " << ev.a << " < 1";
      } else if (ev.a > ev.b && ev.a > kMinRwndFloorBytes) {
        msg << name << ": enforced window " << ev.a << " above cwnd " << ev.b
            << " and floor " << kMinRwndFloorBytes;
      } else if (!in_unit_interval(ev.x)) {
        msg << name << ": alpha " << ev.x << " outside [0,1]";
      }
      break;
    case obs::EventType::kAlphaUpdate:
      // a = marked-bytes delta, b = total-bytes delta, x = new alpha.
      if (ev.a < 0 || ev.b < 0 || ev.a > ev.b) {
        msg << name << ": feedback deltas marked=" << ev.a
            << " total=" << ev.b << " inconsistent";
      } else if (!in_unit_interval(ev.x)) {
        msg << name << ": alpha " << ev.x << " outside [0,1]";
      }
      break;
    case obs::EventType::kCwndUpdate:
      if (ev.a < 0 || ev.b < 0) {
        msg << name << ": negative cwnd " << ev.a << " or ssthresh " << ev.b;
      } else if (!in_unit_interval(ev.x)) {
        msg << name << ": alpha " << ev.x << " outside [0,1]";
      }
      break;
    case obs::EventType::kPolicedDrop:
      if (ev.a <= 0 || ev.b < 0) {
        msg << name << ": payload " << ev.a << " / allowed " << ev.b;
      }
      break;
    case obs::EventType::kTimeoutInferred:
      if (ev.a < 0 || ev.b < 0) {
        msg << name << ": cwnd " << ev.a << " / idle " << ev.b;
      }
      break;
    case obs::EventType::kDupackInjected:
      if (ev.a <= 0) msg << name << ": count " << ev.a;
      break;
    case obs::EventType::kWindowUpdateInjected:
      if (ev.a < 1 || ev.a > 65535) {
        msg << name << ": raw window " << ev.a << " outside [1, 65535]";
      }
      break;
    case obs::EventType::kPackAttached:
    case obs::EventType::kFackEmitted:
      // a = total bytes, b = marked bytes (running counters).
      if (ev.b < 0 || ev.b > ev.a) {
        msg << name << ": marked " << ev.b << " > total " << ev.a;
      }
      break;
    case obs::EventType::kFackConsumed:
      // a = total delta, b = marked delta.
      if (ev.a < 0 || ev.b < 0 || ev.b > ev.a) {
        msg << name << ": deltas total=" << ev.a << " marked=" << ev.b;
      }
      break;
    case obs::EventType::kEcnStrip:
      if (ev.a <= 0 || (ev.b != 0 && ev.b != 1)) {
        msg << name << ": payload " << ev.a << " / was-CE " << ev.b;
      }
      break;
    case obs::EventType::kEcnMark:
      if (ev.b <= 0) msg << name << ": packet bytes " << ev.b;
      break;
    case obs::EventType::kQueueEnqueue:
      // a = occupancy after admit (includes the packet), b = packet bytes.
      if (ev.b <= 0 || ev.a < ev.b) {
        msg << name << ": occupancy " << ev.a << " < packet " << ev.b;
      }
      break;
    case obs::EventType::kQueueDrop:
      if (ev.b <= 0 || ev.a < 0) {
        msg << name << ": occupancy " << ev.a << " / packet " << ev.b;
      }
      break;
    case obs::EventType::kQueueOccupancy:
      // a = bytes, b = packets after a dequeue; zero together or not at all.
      if (ev.a < 0 || ev.b < 0 || (ev.a > 0) != (ev.b > 0)) {
        msg << name << ": bytes " << ev.a << " vs packets " << ev.b;
      }
      break;
    case obs::EventType::kConnState:
      check_conn_transition(ev);
      return;
    case obs::EventType::kTcpCwnd:
      if (ev.a < 0) msg << name << ": cwnd " << ev.a;
      break;
    case obs::EventType::kPktOrigin:
      // a = uid (nonzero), b = payload bytes (0 for SYN/FIN/partial).
      if (ev.a == 0 || ev.b < 0) {
        msg << name << ": uid " << ev.a << " / payload " << ev.b;
      }
      break;
    case obs::EventType::kPktRetx:
      // a = uid, b = time since the previous transmission, x in {0, 1}.
      if (ev.a == 0 || ev.b < 0 || (ev.x != 0.0 && ev.x != 1.0)) {
        msg << name << ": uid " << ev.a << " / wait " << ev.b << " / rto "
            << ev.x;
      }
      break;
    case obs::EventType::kTcpSendStall:
      // a = stall duration, b = StallCause.
      if (ev.a <= 0 || ev.b < 0 ||
          ev.b > static_cast<std::int64_t>(obs::StallCause::kGate)) {
        msg << name << ": stall " << ev.a << " / cause " << ev.b;
      }
      break;
    case obs::EventType::kPktTxStart:
      // a = uid, b = serialization ns, x = queue wait ns (tx-start minus
      // enqueue — never negative, and never fractional in a nanosecond sim).
      if (ev.a == 0 || ev.b <= 0 || ev.x < 0.0 ||
          ev.x != static_cast<double>(static_cast<std::int64_t>(ev.x))) {
        msg << name << ": uid " << ev.a << " / ser " << ev.b << " / wait "
            << ev.x;
      }
      break;
    case obs::EventType::kPktDrop:
      // a = uid, b = occupancy at the drop, x = packet bytes.
      if (ev.a == 0 || ev.b < 0 || ev.x <= 0.0) {
        msg << name << ": uid " << ev.a << " / occupancy " << ev.b
            << " / packet " << ev.x;
      }
      break;
    case obs::EventType::kPktDeliver:
      if (ev.a == 0 || ev.b < 0) {
        msg << name << ": uid " << ev.a << " / payload " << ev.b;
      }
      break;
    case obs::EventType::kRwndClamped:
      // a = enforced window bytes, b = the VM window it displaced; only
      // emitted when the rewrite actually lowers the advertisement.
      if (ev.a < 1 || ev.b < ev.a) {
        msg << name << ": enforced " << ev.a << " not below VM window "
            << ev.b;
      }
      break;
    case obs::EventType::kCount:
      msg << "invalid event type kCount";
      break;
  }
  const std::string text = msg.str();
  if (!text.empty()) fail(text);
}

void InvariantChecker::check_conn_transition(const obs::TraceEvent& ev) {
  using State = tcp::TcpConnection::State;
  const auto valid = [](std::int64_t v) {
    return v >= static_cast<std::int64_t>(State::kClosed) &&
           v <= static_cast<std::int64_t>(State::kDone);
  };
  std::ostringstream msg;
  if (!valid(ev.a) || !valid(ev.b)) {
    msg << "ConnState: out-of-range states " << ev.b << " -> " << ev.a;
    fail(msg.str());
    return;
  }
  const State next = static_cast<State>(ev.a);
  const State prev = static_cast<State>(ev.b);
  bool legal = false;
  switch (prev) {
    case State::kClosed:
      legal = next == State::kSynSent || next == State::kSynReceived;
      break;
    case State::kSynSent:
    case State::kSynReceived:
      legal = next == State::kEstablished || next == State::kDone;
      break;
    case State::kEstablished:
      legal = next == State::kFinWait || next == State::kCloseWait ||
              next == State::kDone;
      break;
    case State::kCloseWait:
      legal = next == State::kLastAck || next == State::kDone;
      break;
    case State::kFinWait:
    case State::kLastAck:
      legal = next == State::kDone;
      break;
    case State::kDone:
      legal = false;  // terminal
      break;
  }
  if (!legal) {
    msg << "ConnState: illegal transition " << ev.b << " -> " << ev.a;
    fail(msg.str());
  }
}

// ---------------------------------------------------------- packet taps

void InvariantChecker::on_wire_ingress(const std::string& host,
                                       HostState& state, net::Packet& p) {
  ++packets_checked_;
  if (p.tcp.options.wire_size() > net::kMaxTcpOptionBytes) {
    fail(host + ": wire ingress packet with " +
         std::to_string(p.tcp.options.wire_size()) + "B of TCP options");
  }
  // Capture pre-rewrite ACK fields; the VM-side tap pairs them by uid.
  // SYN windows are unscaled and never rewritten, so skip the handshake.
  if (!p.tcp.flags.ack || p.tcp.flags.syn) return;
  const std::uint64_t uid = next_uid_++;
  p.uid = uid;
  state.pending.emplace(
      uid, PendingAck{p.tcp.window_raw, p.tcp.seq, p.tcp.ack_seq,
                      p.payload_bytes});
  state.order.push_back(uid);
  while (state.order.size() > kMaxPendingAcks) {
    state.pending.erase(state.order.front());
    state.order.pop_front();
  }
}

void InvariantChecker::on_wire_egress(const std::string& host,
                                      const net::Packet& p) {
  ++packets_checked_;
  std::ostringstream msg;
  if (p.tcp.options.wire_size() > net::kMaxTcpOptionBytes) {
    msg << host << ": egress packet with " << +p.tcp.options.wire_size()
        << "B of TCP options";
    fail(msg.str());
    return;
  }
  // §3.2: everything the vSwitch sends is ECN-capable so WRED marks instead
  // of dropping. FACKs are emitted below the marking point and stay NotEct.
  if (!p.acdc_fack && !net::ecn_capable(p.ip.ecn)) {
    msg << host << ": egress packet left vSwitch " << ecn_name(p.ip.ecn)
        << " (expected ECN-capable)";
    fail(msg.str());
  }
}

void InvariantChecker::on_vm_ingress(const std::string& host,
                                     HostState& state, const net::Packet& p) {
  ++packets_checked_;
  std::ostringstream msg;

  // §3.2/§3.3: the feedback machinery is invisible to the tenant.
  if (p.tcp.options.acdc) {
    msg << host << ": PACK option reached the VM";
    fail(msg.str());
    msg.str("");
  }
  if (p.acdc_fack) {
    msg << host << ": FACK reached the VM";
    fail(msg.str());
    msg.str("");
  }
  // DESIGN.md §13: INT telemetry is fabric/vSwitch machinery; like the
  // PACK option it must be stripped before the tenant boundary.
  if (p.telem.has_value()) {
    msg << host << ": INT telemetry stamp reached the VM";
    fail(msg.str());
    msg.str("");
  }
  if (p.tcp.flags.ack && !p.tcp.flags.syn && p.tcp.flags.ece) {
    msg << host << ": ECN-Echo reached the VM";
    fail(msg.str());
    msg.str("");
  }

  // §3.2: with ECN stripped at the receiver, a non-ECN tenant must see
  // unmarked data. (Pure ACKs are not stripped by design; a non-ECN stack
  // ignores their codepoint.)
  if (p.payload_bytes > 0 && p.ip.ecn != net::Ecn::kNotEct) {
    msg << host << ": data reached the VM carrying " << ecn_name(p.ip.ecn);
    fail(msg.str());
    msg.str("");
  }

  // Pair with the pre-rewrite copy captured at the wire tap. uid == 0 means
  // the packet was crafted by the vSwitch itself (§3.3 injections).
  if (p.uid == 0) return;
  const auto it = state.pending.find(p.uid);
  if (it == state.pending.end()) return;  // evicted under heavy fan-in
  const PendingAck& pre = it->second;
  if (p.tcp.seq != pre.seq || p.tcp.ack_seq != pre.ack_seq ||
      p.payload_bytes != pre.payload_bytes) {
    msg << host << ": vSwitch altered seq/ack/payload (seq " << pre.seq
        << "->" << p.tcp.seq << ", ack " << pre.ack_seq << "->"
        << p.tcp.ack_seq << ", payload " << pre.payload_bytes << "->"
        << p.payload_bytes << ")";
    fail(msg.str());
    msg.str("");
  }
  if (p.tcp.window_raw > pre.window_raw) {
    msg << host << ": vSwitch RAISED advertised window " << pre.window_raw
        << " -> " << p.tcp.window_raw;
    fail(msg.str());
  }
  state.pending.erase(it);
}

// ------------------------------------------------------ end-of-run checks

void InvariantChecker::check_flow_table(const std::string& name,
                                        vswitch::AcdcVswitch& vs) {
  vs.flows().for_each([&](const vswitch::FlowRef& f) {
    const vswitch::FlowHot& s = *f.hot;
    std::ostringstream msg;
    msg << name << " flow " << f.key->src_port << "->" << f.key->dst_port
        << ": ";
    if (s.seq_valid && !tcp::seq_le(s.snd_una, s.snd_nxt)) {
      fail(msg.str() + "snd_una " + std::to_string(s.snd_una) +
           " beyond snd_nxt " + std::to_string(s.snd_nxt));
    }
    if (!in_unit_interval(s.alpha)) {
      fail(msg.str() + "alpha " + std::to_string(s.alpha) + " outside [0,1]");
    }
    if (s.cwnd_bytes < 0.0 || s.ssthresh_bytes < 0.0) {
      fail(msg.str() + "negative cwnd/ssthresh");
    }
    if (s.peer_wscale > 14) {
      fail(msg.str() + "window scale " + std::to_string(s.peer_wscale) +
           " beyond RFC 7323 max 14");
    }
    if (s.mss == 0) fail(msg.str() + "zero MSS");
    if (s.last_enforced_rwnd != -1 && s.last_enforced_rwnd < 1) {
      fail(msg.str() + "enforced rwnd " +
           std::to_string(s.last_enforced_rwnd));
    }
    // Running feedback counters wrap mod 2^32 in principle; our scenarios
    // stay far below 4GB per flow, so marked <= total must hold.
    if (s.rcv_marked_bytes > s.rcv_total_bytes) {
      fail(msg.str() + "marked bytes " + std::to_string(s.rcv_marked_bytes) +
           " > total " + std::to_string(s.rcv_total_bytes));
    }
    // RTT estimator internal consistency: a valid estimator implies a
    // nonzero min, and min can never exceed the smoothed value.
    if (s.rtt.valid() &&
        (s.rtt.min_rtt_us == 0 || s.rtt.min_rtt_us > s.rtt.srtt_us() * 8)) {
      fail(msg.str() + "rtt estimator inconsistent (min " +
           std::to_string(s.rtt.min_rtt_us) + "us, srtt " +
           std::to_string(s.rtt.srtt_us()) + "us)");
    }
  });

  const vswitch::AcdcStats& st = vs.stats();
  if (st.windows_lowered > st.acks_processed) {
    fail(name + ": windows_lowered " + std::to_string(st.windows_lowered) +
         " > acks_processed " + std::to_string(st.acks_processed));
  }
}

void InvariantChecker::check_queue(const std::string& name,
                                   const net::Queue& queue) {
  const net::QueueStats& s = queue.stats();
  std::ostringstream msg;
  if (s.enqueued_bytes != s.dequeued_bytes + queue.byte_length()) {
    msg << name << ": byte conservation broken (in " << s.enqueued_bytes
        << " != out " << s.dequeued_bytes << " + resident "
        << queue.byte_length() << ")";
    fail(msg.str());
    return;
  }
  if (s.enqueued_packets !=
      s.dequeued_packets + static_cast<std::int64_t>(queue.packet_length())) {
    msg << name << ": packet conservation broken (in " << s.enqueued_packets
        << " != out " << s.dequeued_packets << " + resident "
        << queue.packet_length() << ")";
    fail(msg.str());
    return;
  }
  if (s.marked_packets > s.enqueued_packets) {
    msg << name << ": marked " << s.marked_packets << " > enqueued "
        << s.enqueued_packets;
    fail(msg.str());
  }
}

void InvariantChecker::check_switch(const net::Switch& sw) {
  for (const std::unique_ptr<net::Port>& port : sw.ports()) {
    check_queue(sw.name() + "." + port->name(), port->queue());
  }
}

void InvariantChecker::check_fack_balance(
    const std::vector<vswitch::AcdcVswitch*>& vswitches) {
  std::int64_t sent = 0;
  std::int64_t consumed = 0;
  for (const vswitch::AcdcVswitch* vs : vswitches) {
    sent += vs->stats().facks_sent;
    consumed += vs->stats().facks_consumed;
  }
  if (consumed > sent) {
    fail("FACK balance: consumed " + std::to_string(consumed) + " > sent " +
         std::to_string(sent));
  }
}

}  // namespace acdc::testlib
