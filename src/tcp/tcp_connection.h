// A tenant TCP stack: connection establishment with option negotiation
// (MSS, window scale, SACK, ECN), sequence/ACK machinery, flow control
// against the peer's advertised receive window, NewReno fast
// retransmit/recovery with SACK assistance, RTO with exponential backoff,
// and pluggable congestion control (tcp/cc).
//
// This is the "VM TCP stack" of the paper: everything AC/DC must work with
// but cannot modify. Notably the stack obeys the standard — it always limits
// itself to min(CWND, peer RWND) — which is exactly the lever AC/DC's
// enforcement uses (§3.3). A non-conforming tenant can be modelled with
// TcpConfig::ignore_peer_rwnd.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "net/packet.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "sim/deadline_timer.h"
#include "sim/fifo.h"
#include "sim/simulator.h"
#include "tcp/cc/congestion_control.h"
#include "tcp/rtt_estimator.h"
#include "tcp/seq.h"

namespace acdc::tcp {

struct Endpoint {
  net::IpAddr ip = 0;
  net::TcpPort port = 0;

  bool operator==(const Endpoint&) const = default;
};

struct TcpConfig {
  // Maximum payload per segment. Defaults to a 9KB-MTU datacenter fabric
  // (9000 - 40 bytes of headers); the paper also evaluates 1.5KB MTU
  // (mss = 1460).
  std::uint32_t mss = 8960;
  std::uint8_t window_scale = 9;
  std::int64_t receive_buffer_bytes = std::int64_t{16} * 1024 * 1024;
  bool ecn = false;  // negotiate ECN (RFC 3168)
  // Mark SYNs and pure ACKs ECT as well (RFC 8311-style; standard practice
  // in DCTCP deployments so control packets are marked, not dropped, at
  // saturated WRED queues — cf. Judd, NSDI'15).
  bool ect_on_control = false;
  bool sack = true;
  bool delayed_ack = false;    // datacenter default: quick ACK
  sim::Time delayed_ack_timeout = sim::milliseconds(40);
  sim::Time min_rto = sim::milliseconds(10);  // paper sets RTOmin = 10ms
  sim::Time initial_rto = sim::milliseconds(200);
  // Non-conforming tenant: ignores the peer's advertised window entirely.
  bool ignore_peer_rwnd = false;
  // Upper bound on CWND in packets (Linux's snd_cwnd_clamp, Fig. 6); 0 = off.
  double cwnd_clamp_packets = 0.0;
  // Congestion control algorithm (see make_congestion_control()).
  CcId cc = CcId::kCubic;
  Seq initial_seq = 10'000;
};

class TcpConnection {
 public:
  enum class State {
    kClosed,
    kSynSent,
    kSynReceived,
    kEstablished,
    kFinWait,    // our FIN sent, waiting for ACK + peer FIN
    kCloseWait,  // peer FIN received, app not yet closed
    kLastAck,    // peer FIN received and our FIN sent
    kDone,
  };

  struct Stats {
    std::int64_t segments_sent = 0;
    std::int64_t segments_received = 0;
    std::int64_t retransmissions = 0;
    std::int64_t fast_retransmits = 0;
    std::int64_t rtos = 0;
    std::int64_t ecn_reductions = 0;  // CWR entries from ECE feedback
  };

  TcpConnection(sim::Simulator* sim, TcpConfig config, Endpoint local,
                Endpoint remote, net::PacketSink* out);

  TcpConnection(const TcpConnection&) = delete;
  TcpConnection& operator=(const TcpConnection&) = delete;

  // ---- Application interface ----
  void open_active();                          // client: send SYN
  void open_passive(const net::Packet& syn);   // server: consume SYN
  // Appends `bytes` of (synthetic) application data to the send queue.
  void send(std::int64_t bytes);
  void close();  // send FIN once all queued data is out
  // Hard reset: emits a RST toward the peer and enters kDone immediately,
  // discarding unsent data and in-flight state. The peer's stack tears its
  // side down on RST receipt; the vSwitch treats the RST like a FIN for
  // flow-table GC. No-op before open_* and after kDone.
  void abort();

  std::function<void()> on_established;
  // TSQ-style transmit gate: when set and returning false, no *new* data
  // segments are emitted (retransmissions and ACKs still go out). The host
  // calls poke() when budget frees up.
  std::function<bool()> tx_gate;
  void poke() { try_send(); }
  // Receiver side: called with newly delivered in-order payload bytes.
  std::function<void(std::int64_t)> on_deliver;
  // Sender side: called when snd_una advances; argument is cumulative
  // ACKed payload bytes.
  std::function<void(std::int64_t)> on_acked;
  std::function<void()> on_closed;
  // Fired once when the peer's FIN first arrives (entering kCloseWait on a
  // half-open connection). Servers handling short transfers use this to
  // close() their side immediately instead of holding state forever.
  std::function<void()> on_peer_fin;

  // ---- Network interface ----
  void receive(net::PacketPtr packet);

  // ---- Introspection (the tcpprobe analogue used by Figs. 9/10) ----
  State state() const { return state_; }
  const CcState& cc_state() const { return cc_state_; }
  const CongestionControl& congestion_control() const { return *cc_; }
  std::int64_t cwnd_bytes() const {
    return static_cast<std::int64_t>(cc_state_.cwnd_bytes());
  }
  std::int64_t peer_rwnd_bytes() const { return peer_rwnd_bytes_; }
  std::int64_t bytes_in_flight() const {
    return static_cast<std::int64_t>(snd_nxt_ - snd_una_);
  }
  std::int64_t delivered_bytes() const { return delivered_bytes_; }
  std::int64_t acked_payload_bytes() const { return acked_payload_bytes_; }
  std::int64_t queued_unsent_bytes() const {
    return static_cast<std::int64_t>(write_seq_ - snd_nxt_);
  }
  const Stats& stats() const { return stats_; }
  const RttEstimator& rtt() const { return rtt_; }
  const TcpConfig& config() const { return config_; }
  const Endpoint& local() const { return local_; }
  const Endpoint& remote() const { return remote_; }
  // The 4-tuple this connection's trace events carry, local end first.
  obs::Flow flow() const {
    return {local_.ip, remote_.ip, local_.port, remote_.port};
  }
  bool ecn_negotiated() const { return ecn_ok_; }

  // Flight-recorder hook: state transitions and cwnd/ssthresh movements are
  // recorded through `tap` (typically named "<host>.tcp:<port>"). While the
  // tap is on, every transmitted segment also gets a deterministic nonzero
  // uid (derived from the 4-tuple and a per-connection counter, so serial
  // and sharded runs agree) plus origin / retransmission / send-stall
  // events for the forensics analyzer.
  void set_tap(obs::Tap tap) { tap_ = tap; }

  // Optional RTT histogram (registry-owned); fed one sample per valid RTT
  // measurement. Must outlive the connection.
  void set_rtt_histogram(obs::Histogram* hist) { rtt_hist_ = hist; }

  // The owning host's position of this connection in its connection list,
  // stamped by the host for O(1) release.
  std::size_t host_index = 0;

 private:
  struct TxSegment {
    Seq seq = 0;
    std::uint32_t len = 0;  // sequence space consumed (SYN/FIN count 1)
    sim::Time sent_at = 0;
    bool retransmitted = false;
    bool sacked = false;
    bool syn = false;
    bool fin = false;
  };

  // ---- Send path ----
  void try_send();
  void send_segment(TxSegment& seg);
  net::PacketPtr build_packet(const TxSegment& seg) const;
  void transmit(net::PacketPtr packet);
  std::int64_t send_window_bytes() const;
  // The cwnd-side limit alone (clamp, recovery inflation, limited
  // transmit), i.e. send_window_bytes() before the peer-RWND min.
  std::int64_t cwnd_side_window_bytes() const;
  void enqueue_fin_if_ready();

  // ---- Receive path ----
  // Takes the peer's SYN or SYN-ACK options: its initial sequence, MSS,
  // window scale, SACK permission and (unscaled) window. The ECN rule
  // differs between the two and stays with each caller.
  void learn_peer_syn(const net::Packet& syn);
  // Feeds one RTT sample to the estimator, the histogram and cc_state_.
  void take_rtt_sample(sim::Time sample);
  void handle_syn_states(net::PacketPtr& packet);
  void process_ack(const net::Packet& packet);
  void process_payload(const net::Packet& packet);
  void send_ack_now();
  void maybe_send_ack(bool forced);
  std::uint16_t advertised_window_raw() const;
  net::SackBlocks current_sack_blocks() const;

  // ---- Loss handling ----
  void enter_recovery();
  void on_dupack(const net::Packet& packet);
  void apply_sack(const net::SackBlocks& blocks);
  bool retransmit_first_unsacked();
  bool retransmit_next_hole();
  void on_rto_fire();
  void arm_rto();  // (re)arms rto_timer_ for rto * backoff from now

  // ---- ECN ----
  void react_to_ece();

  // The one way into kDone (peer RST, the close handshake's last ACK,
  // abort): records the state change, stops the RTO and runs on_closed.
  void finish();

  // ---- Tracing ----
  void enter_state(State next);  // state_ writes funnel through here
  void trace_cwnd();
  // Forensic helpers: deterministic per-segment uid, and send-stall
  // bookkeeping (try_send records when pending data first blocks; the next
  // fresh data segment flushes the accumulated wait as kTcpSendStall).
  std::uint64_t next_uid();
  void note_blocked(obs::StallCause cause);

  sim::Simulator* sim_;
  TcpConfig config_;
  Endpoint local_;
  Endpoint remote_;
  net::PacketSink* out_;

  State state_ = State::kClosed;
  std::unique_ptr<CongestionControl> cc_;
  CcState cc_state_;
  RttEstimator rtt_;

  // Sender state. Flags and 4-byte fields sit together so the struct has no
  // padding holes: churn keeps thousands of connections alive at once.
  Seq iss_ = 0;
  Seq snd_una_ = 0;
  Seq snd_nxt_ = 0;
  Seq write_seq_ = 0;  // next unqueued byte (app watermark)
  sim::Fifo<TxSegment> segments_;
  std::int64_t peer_rwnd_bytes_ = 0;
  std::uint8_t peer_wscale_ = 0;
  bool wscale_ok_ = false;
  bool sack_ok_ = false;
  bool ecn_ok_ = false;
  std::uint32_t effective_mss_ = 0;
  int dupacks_ = 0;
  Seq highest_sacked_ = 0;
  bool any_sacked_ = false;
  bool in_recovery_ = false;
  bool in_rto_recovery_ = false;
  bool cwr_pending_ = false;  // set CWR on next data segment
  Seq recovery_point_ = 0;
  Seq rto_recovery_point_ = 0;
  Seq cwr_end_ = 0;           // one ECE reduction per window of data
  double recovery_inflation_ = 0.0;
  bool fin_pending_ = false;
  bool fin_sent_ = false;
  bool fin_acked_ = false;
  int rto_backoff_ = 1;
  std::int64_t acked_payload_bytes_ = 0;
  sim::DeadlineTimer rto_timer_;

  // Receiver state.
  Seq irs_ = 0;
  Seq rcv_nxt_ = 0;
  std::map<Seq, Seq, SeqLess> out_of_order_;  // [start, end) intervals
  std::int64_t delivered_bytes_ = 0;
  bool ece_latched_ = false;      // classic ECN receiver state
  bool last_segment_ce_ = false;  // DCTCP-style accurate per-ACK echo
  bool dctcp_echo_ = false;
  bool fin_received_ = false;
  int pending_ack_segments_ = 0;
  sim::DeadlineTimer delack_timer_;

  obs::Tap tap_;
  obs::Histogram* rtt_hist_ = nullptr;

  // Forensic send-path state.
  std::uint64_t uid_base_ = 0;  // mixed from the 4-tuple at construction
  std::uint64_t uid_seq_ = 0;
  sim::Time block_start_ = sim::kNoTime;
  obs::StallCause block_cause_ = obs::StallCause::kCwnd;

  Stats stats_;
};

}  // namespace acdc::tcp
