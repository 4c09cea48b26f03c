#include "tcp/tcp_connection.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace acdc::tcp {

namespace {
constexpr int kMaxRtoBackoff = 64;
constexpr double kInitialCwnd = 10.0;  // packets, RFC 6928

std::int64_t effective_window(std::uint16_t raw, bool scaled,
                              std::uint8_t wscale) {
  return static_cast<std::int64_t>(raw) << (scaled ? wscale : 0);
}

// splitmix64 finalizer: turns the 4-tuple + a per-connection counter into
// well-spread packet uids without any global state, so serial and sharded
// runs stamp identical uids.
std::uint64_t mix64(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}
}  // namespace

TcpConnection::TcpConnection(sim::Simulator* sim, TcpConfig config,
                             Endpoint local, Endpoint remote,
                             net::PacketSink* out)
    : sim_(sim),
      config_(std::move(config)),
      local_(local),
      remote_(remote),
      out_(out),
      rtt_(config_.min_rto, config_.initial_rto),
      rto_timer_(sim, this,
                 [](void* self) {
                   static_cast<TcpConnection*>(self)->on_rto_fire();
                 }),
      delack_timer_(sim, this, [](void* self) {
        auto* conn = static_cast<TcpConnection*>(self);
        if (conn->pending_ack_segments_ > 0) conn->send_ack_now();
      }) {
  cc_ = make_congestion_control(config_.cc);
  assert(cc_ != nullptr && "unknown congestion control algorithm");
  dctcp_echo_ = config_.cc == CcId::kDctcp;
  effective_mss_ = config_.mss;
  cc_state_.mss = effective_mss_;
  cc_state_.cwnd = kInitialCwnd;
  cc_->init(cc_state_);
  iss_ = config_.initial_seq;
  snd_una_ = iss_;
  snd_nxt_ = iss_;
  write_seq_ = iss_ + 1;  // SYN consumes one sequence number
  peer_rwnd_bytes_ = std::int64_t{1} << 30;
  // Hash the addresses before folding in the ports: a plain XOR of the
  // packed 4-tuple lets adjacent (ip, port) pairs cancel, and two flows
  // sharing a uid base would corrupt per-packet delay attribution.
  uid_base_ = mix64(mix64(static_cast<std::uint64_t>(local_.ip) << 32 |
                          remote_.ip) ^
                    (static_cast<std::uint64_t>(local_.port) << 16 |
                     remote_.port));
}

// ---------------------------------------------------------------- open/close

void TcpConnection::open_active() {
  assert(state_ == State::kClosed);
  enter_state(State::kSynSent);
  TxSegment syn;
  syn.seq = iss_;
  syn.len = 1;
  syn.syn = true;
  segments_.push_back(syn);
  snd_nxt_ = iss_ + 1;
  send_segment(segments_.back());
  arm_rto();
}

void TcpConnection::open_passive(const net::Packet& syn) {
  assert(state_ == State::kClosed);
  assert(syn.tcp.flags.syn && !syn.tcp.flags.ack);
  learn_peer_syn(syn);
  ecn_ok_ = config_.ecn && syn.tcp.flags.ece && syn.tcp.flags.cwr;

  enter_state(State::kSynReceived);
  TxSegment synack;
  synack.seq = iss_;
  synack.len = 1;
  synack.syn = true;
  segments_.push_back(synack);
  snd_nxt_ = iss_ + 1;
  send_segment(segments_.back());
  arm_rto();
}

void TcpConnection::send(std::int64_t bytes) {
  assert(bytes >= 0);
  assert(!fin_pending_ && "send() after close()");
  write_seq_ += static_cast<Seq>(bytes);
  try_send();
}

void TcpConnection::close() {
  if (fin_pending_) return;
  fin_pending_ = true;
  try_send();
}

void TcpConnection::abort() {
  if (state_ == State::kClosed || state_ == State::kDone) return;
  auto rst = net::make_packet();
  rst->ip.src = local_.ip;
  rst->ip.dst = remote_.ip;
  rst->tcp.src_port = local_.port;
  rst->tcp.dst_port = remote_.port;
  rst->tcp.flags.rst = true;
  rst->tcp.flags.ack = true;
  rst->tcp.seq = snd_nxt_;
  rst->tcp.ack_seq = rcv_nxt_;
  ++stats_.segments_sent;
  transmit(std::move(rst));
  delack_timer_.disarm();
  segments_.clear();
  finish();
}

void TcpConnection::finish() {
  enter_state(State::kDone);
  rto_timer_.disarm();
  if (on_closed) on_closed();
}

// ----------------------------------------------------------------- send path

std::int64_t TcpConnection::cwnd_side_window_bytes() const {
  std::int64_t wnd = cwnd_bytes();
  if (config_.cwnd_clamp_packets > 0.0) {
    wnd = std::min(wnd, static_cast<std::int64_t>(config_.cwnd_clamp_packets *
                                                  effective_mss_));
  }
  if (in_recovery_) {
    wnd += static_cast<std::int64_t>(recovery_inflation_ * effective_mss_);
  } else if (dupacks_ > 0) {
    // Limited transmit (RFC 3042).
    wnd += std::int64_t{std::min(dupacks_, 2)} * effective_mss_;
  }
  return wnd;
}

std::int64_t TcpConnection::send_window_bytes() const {
  std::int64_t wnd = cwnd_side_window_bytes();
  if (!config_.ignore_peer_rwnd) {
    wnd = std::min(wnd, peer_rwnd_bytes_);
  }
  return wnd;
}

void TcpConnection::enqueue_fin_if_ready() {
  if (!fin_pending_ || fin_sent_) return;
  if (snd_nxt_ != write_seq_) return;  // data still unsent
  TxSegment fin;
  fin.seq = snd_nxt_;
  fin.len = 1;
  fin.fin = true;
  segments_.push_back(fin);
  snd_nxt_ += 1;
  fin_sent_ = true;
  if (state_ == State::kEstablished) enter_state(State::kFinWait);
  if (state_ == State::kCloseWait) enter_state(State::kLastAck);
  send_segment(segments_.back());
  arm_rto();
}

void TcpConnection::try_send() {
  if (state_ != State::kEstablished && state_ != State::kCloseWait) {
    return;
  }
  const std::int64_t wnd = send_window_bytes();
  bool sent = false;
  while (seq_lt(snd_nxt_, write_seq_)) {
    if (tx_gate && !tx_gate()) {  // local TX budget exhausted (TSQ)
      note_blocked(obs::StallCause::kGate);
      break;
    }
    const std::uint32_t remaining = write_seq_ - snd_nxt_;
    std::uint32_t seg_len = std::min(remaining, effective_mss_);
    const std::int64_t in_flight = static_cast<std::int64_t>(snd_nxt_ - snd_una_);
    if (in_flight + seg_len > wnd) {
      // Sender-side SWS avoidance escape hatch: when nothing is in flight
      // and the window is smaller than one MSS, send a partial segment
      // rather than deadlocking (the window may never grow otherwise).
      const std::int64_t avail = wnd - in_flight;
      if (in_flight == 0 && avail > 0) {
        seg_len = static_cast<std::uint32_t>(
            std::min<std::int64_t>(seg_len, avail));
      } else {
        note_blocked(!config_.ignore_peer_rwnd &&
                             peer_rwnd_bytes_ < cwnd_side_window_bytes()
                         ? obs::StallCause::kRwnd
                         : obs::StallCause::kCwnd);
        break;
      }
    }
    TxSegment seg;
    seg.seq = snd_nxt_;
    seg.len = seg_len;
    segments_.push_back(seg);
    snd_nxt_ += seg_len;
    send_segment(segments_.back());
    sent = true;
  }
  enqueue_fin_if_ready();
  if (sent && !rto_timer_.armed()) arm_rto();
}

net::PacketPtr TcpConnection::build_packet(const TxSegment& seg) const {
  auto p = net::make_packet();
  p->ip.src = local_.ip;
  p->ip.dst = remote_.ip;
  p->tcp.src_port = local_.port;
  p->tcp.dst_port = remote_.port;
  p->tcp.seq = seg.seq;
  p->tcp.window_raw = advertised_window_raw();

  if (seg.syn) {
    // Windows on SYN segments are never scaled (RFC 7323).
    p->tcp.window_raw = static_cast<std::uint16_t>(
        std::min<std::int64_t>(config_.receive_buffer_bytes, 65'535));
    if (config_.ecn && config_.ect_on_control) p->ip.ecn = net::Ecn::kEct0;
    p->tcp.flags.syn = true;
    p->tcp.options.mss = static_cast<std::uint16_t>(config_.mss);
    p->tcp.options.window_scale = config_.window_scale;
    p->tcp.options.sack_permitted = config_.sack;
    if (state_ == State::kSynSent) {
      // Active SYN: request ECN per RFC 3168.
      if (config_.ecn) {
        p->tcp.flags.ece = true;
        p->tcp.flags.cwr = true;
      }
    } else {
      // SYN-ACK: accept ECN if both sides support it.
      p->tcp.flags.ack = true;
      p->tcp.ack_seq = rcv_nxt_;
      if (ecn_ok_) p->tcp.flags.ece = true;
    }
    return p;
  }

  p->tcp.flags.ack = true;
  p->tcp.ack_seq = rcv_nxt_;
  p->tcp.flags.fin = seg.fin;
  p->payload_bytes = seg.fin ? 0 : seg.len;
  if (p->payload_bytes > 0) {
    p->ip.ecn = ecn_ok_ ? net::Ecn::kEct0 : net::Ecn::kNotEct;
    if (cwr_pending_) {
      p->tcp.flags.cwr = true;
      // cwr_pending_ cleared by caller (build_packet is const).
    }
  }
  return p;
}

// Reads `seg` only before transmit(): transmitting can re-enter try_send(),
// whose push may grow segments_ and move `seg` (see process_ack).
void TcpConnection::send_segment(TxSegment& seg) {
  const bool is_retx = seg.retransmitted;
  const sim::Time prev_sent_at = seg.sent_at;
  seg.sent_at = sim_->now();
  net::PacketPtr p = build_packet(seg);
  if (p->payload_bytes > 0 && cwr_pending_) cwr_pending_ = false;
  ++stats_.segments_sent;

  if (tap_) {
    p->uid = next_uid();
    const sim::Time now = sim_->now();
    // Flush the pending send-stall first so the analyzer can attach the
    // wait to this (fresh data) segment's origin.
    if (!is_retx && !seg.syn && block_start_ != sim::kNoTime) {
      const sim::Time stall = now - block_start_;
      if (stall > 0) {
        tap_.emit(obs::EventType::kTcpSendStall, now, flow(), stall,
                  static_cast<std::int64_t>(block_cause_));
      }
      block_start_ = sim::kNoTime;
    }
    const auto uid = static_cast<std::int64_t>(p->uid);
    tap_.emit(obs::EventType::kPktOrigin, now, flow(), uid,
              p->payload_bytes);
    if (is_retx) {
      const bool rto_context = in_rto_recovery_ ||
                               state_ == State::kSynSent ||
                               state_ == State::kSynReceived;
      tap_.emit(obs::EventType::kPktRetx, now, flow(), uid,
                now - prev_sent_at, rto_context ? 1.0 : 0.0);
    }
  }
  transmit(std::move(p));
}

std::uint64_t TcpConnection::next_uid() {
  // Bit 62 set keeps TCP uids disjoint from small sequential uids other
  // components (e.g. the invariant checker) assign; masking bit 63 off
  // keeps the value a positive int64 for JSON export.
  std::uint64_t uid =
      (mix64(uid_base_ ^ ++uid_seq_) & 0x3fffffffffffffffull) |
      (std::uint64_t{1} << 62);
  return uid;
}

void TcpConnection::note_blocked(obs::StallCause cause) {
  if (!tap_) return;
  if (block_start_ != sim::kNoTime) return;  // keep the first block's cause
  block_start_ = sim_->now();
  block_cause_ = cause;
}

void TcpConnection::transmit(net::PacketPtr packet) {
  out_->receive(std::move(packet));
}

// -------------------------------------------------------------- receive path

void TcpConnection::receive(net::PacketPtr packet) {
  cc_state_.now = sim_->now();
  ++stats_.segments_received;

  if (state_ == State::kSynSent || state_ == State::kSynReceived) {
    handle_syn_states(packet);
    return;
  }
  if (state_ == State::kClosed || state_ == State::kDone) {
    // TIME_WAIT's one duty: a retransmitted FIN arriving after we are done
    // means our final ACK was lost and the peer is stuck in LAST-ACK,
    // resending its FIN forever. Re-ACK it (rcv_nxt_ already counts the
    // FIN) so the peer can finish too.
    if (state_ == State::kDone && packet->tcp.flags.fin &&
        !packet->tcp.flags.rst) {
      send_ack_now();
    }
    return;
  }
  const net::Packet& p = *packet;
  if (p.tcp.flags.rst) {
    finish();
    return;
  }
  if (p.tcp.flags.ack) process_ack(p);
  if (p.payload_bytes > 0 || p.tcp.flags.fin) process_payload(p);
}

void TcpConnection::learn_peer_syn(const net::Packet& syn) {
  irs_ = syn.tcp.seq;
  rcv_nxt_ = irs_ + 1;
  if (syn.tcp.options.mss) {
    effective_mss_ = std::min<std::uint32_t>(config_.mss, *syn.tcp.options.mss);
    cc_state_.mss = effective_mss_;
  }
  if (syn.tcp.options.window_scale) {
    wscale_ok_ = true;
    peer_wscale_ = *syn.tcp.options.window_scale;
  }
  sack_ok_ = config_.sack && syn.tcp.options.sack_permitted;
  // A SYN's window is never scaled (RFC 7323 §2.2).
  peer_rwnd_bytes_ = effective_window(syn.tcp.window_raw, false, 0);
}

void TcpConnection::take_rtt_sample(sim::Time sample) {
  rtt_.add_sample(sample);
  if (rtt_hist_ != nullptr) rtt_hist_->record(sample);
  cc_state_.srtt = rtt_.srtt();
  cc_state_.min_rtt = rtt_.min_rtt();
}

void TcpConnection::handle_syn_states(net::PacketPtr& packet) {
  const net::Packet& p = *packet;
  if (state_ == State::kSynSent) {
    if (!(p.tcp.flags.syn && p.tcp.flags.ack)) return;
    if (p.tcp.ack_seq != iss_ + 1) return;
    learn_peer_syn(p);
    ecn_ok_ = config_.ecn && p.tcp.flags.ece;
    snd_una_ = p.tcp.ack_seq;
    if (!segments_.empty() && !segments_.front().retransmitted) {
      take_rtt_sample(sim_->now() - segments_.front().sent_at);
    }
    segments_.clear();  // the SYN is acked
    rto_timer_.disarm();
    rto_backoff_ = 1;
    enter_state(State::kEstablished);
    send_ack_now();
    if (on_established) on_established();
    try_send();
    return;
  }

  // kSynReceived: waiting for the ACK of our SYN-ACK. The ACK may carry data.
  if (p.tcp.flags.syn && !p.tcp.flags.ack) {
    // Duplicate SYN: retransmit the SYN-ACK.
    if (!segments_.empty() && segments_.front().syn) {
      ++stats_.retransmissions;
      segments_.front().retransmitted = true;
      send_segment(segments_.front());
    }
    return;
  }
  if (!p.tcp.flags.ack || p.tcp.ack_seq != iss_ + 1) return;
  snd_una_ = p.tcp.ack_seq;
  segments_.clear();
  rto_timer_.disarm();
  rto_backoff_ = 1;
  peer_rwnd_bytes_ =
      effective_window(p.tcp.window_raw, wscale_ok_, peer_wscale_);
  enter_state(State::kEstablished);
  if (on_established) on_established();
  if (p.payload_bytes > 0 || p.tcp.flags.fin) process_payload(p);
  try_send();
}

void TcpConnection::react_to_ece() {
  if (!ecn_ok_) return;
  // React at most once per window of data (RFC 3168 CWR semantics).
  if (seq_lt(snd_una_, cwr_end_)) return;
  if (snd_nxt_ == snd_una_) return;  // nothing in flight
  cc_state_.ssthresh = cc_->ssthresh_after_ecn(cc_state_);
  cc_state_.cwnd = std::max(CongestionControl::kMinCwnd, cc_state_.ssthresh);
  cwr_end_ = snd_nxt_;
  cwr_pending_ = true;
  ++stats_.ecn_reductions;
  cc_->on_window_reduction(cc_state_);
  trace_cwnd();
}

void TcpConnection::apply_sack(const net::SackBlocks& blocks) {
  if (!sack_ok_ || blocks.empty()) return;
  for (const net::SackBlock& b : blocks) {
    if (!any_sacked_ || seq_gt(b.end, highest_sacked_)) {
      highest_sacked_ = b.end;
      any_sacked_ = true;
    }
  }
  for (TxSegment& seg : segments_) {
    if (seg.sacked) continue;
    for (const net::SackBlock& b : blocks) {
      if (seq_ge(seg.seq, b.start) && seq_le(seg.seq + seg.len, b.end)) {
        seg.sacked = true;
        break;
      }
    }
  }
}

void TcpConnection::process_ack(const net::Packet& p) {
  const Seq ack = p.tcp.ack_seq;
  if (seq_gt(ack, snd_nxt_)) return;  // acks data we never sent

  const std::int64_t new_peer_rwnd =
      effective_window(p.tcp.window_raw, wscale_ok_, peer_wscale_);
  const bool window_changed = new_peer_rwnd != peer_rwnd_bytes_;
  peer_rwnd_bytes_ = new_peer_rwnd;

  apply_sack(p.tcp.options.sack);
  if (p.tcp.flags.ece) react_to_ece();

  if (seq_gt(ack, snd_una_)) {
    // ---- The ACK advances the left edge. ----
    std::int64_t acked_payload = 0;
    int acked_packets = 0;
    sim::Time rtt_sample = 0;
    bool fin_just_acked = false;
    while (!segments_.empty() &&
           seq_le(segments_.front().seq + segments_.front().len, ack)) {
      const TxSegment& seg = segments_.front();
      if (!seg.retransmitted) rtt_sample = sim_->now() - seg.sent_at;
      if (!seg.syn && !seg.fin) {
        acked_payload += seg.len;
        ++acked_packets;
      }
      if (seg.fin) fin_just_acked = true;
      segments_.pop_front();
    }
    snd_una_ = ack;
    dupacks_ = 0;
    recovery_inflation_ = 0.0;
    rto_backoff_ = 1;
    if (any_sacked_ && seq_ge(snd_una_, highest_sacked_)) {
      any_sacked_ = false;  // scoreboard fully consumed
    }

    if (rtt_sample > 0) take_rtt_sample(rtt_sample);

    if (in_rto_recovery_) {
      if (seq_ge(ack, rto_recovery_point_)) {
        in_rto_recovery_ = false;
      } else {
        // Go-back-N after an RTO: refill the hole with retransmissions,
        // clocked like slow start (~2 segments per ACKed segment) instead
        // of sending new data past it. send_segment() can reach try_send()
        // again (transmit -> NIC drain -> Host::on_nic_drain -> poke), which
        // may push onto segments_ and grow it, moving every element. The
        // loop survives that because its iterator is a (queue, position)
        // pair and its cached end() stays at the segments it started with;
        // nothing in the body reads `seg` after send_segment().
        int budget = std::max(1, 2 * acked_packets);
        for (TxSegment& seg : segments_) {
          if (budget == 0) break;
          if (seg.sacked || seg.retransmitted) continue;
          if (seq_lt(seg.seq, snd_una_)) continue;
          if (seq_ge(seg.seq, rto_recovery_point_)) break;
          seg.retransmitted = true;
          ++stats_.retransmissions;
          send_segment(seg);
          --budget;
        }
      }
    }
    if (in_recovery_) {
      if (seq_ge(ack, recovery_point_)) {
        in_recovery_ = false;
        cc_state_.cwnd =
            std::max(CongestionControl::kMinCwnd, cc_state_.ssthresh);
      } else if (!sack_ok_) {
        // NewReno partial ACK: the next hole is lost too.
        if (retransmit_first_unsacked()) ++stats_.retransmissions;
      } else if (any_sacked_ && seq_lt(ack, highest_sacked_)) {
        // SACK scoreboard: a confirmed hole below the highest SACKed byte.
        if (retransmit_next_hole()) ++stats_.retransmissions;
      }
    } else if (acked_packets > 0) {
      AckSample sample;
      sample.acked_bytes = acked_payload;
      sample.acked_packets = acked_packets;
      sample.rtt = rtt_sample;
      sample.ece = p.tcp.flags.ece;
      sample.in_flight =
          static_cast<int>((snd_nxt_ - snd_una_) / std::max(1u, effective_mss_));
      cc_->on_ack(cc_state_, sample);
    }
    trace_cwnd();

    acked_payload_bytes_ += acked_payload;
    if (fin_just_acked) fin_acked_ = true;

    if (snd_una_ == snd_nxt_) {
      rto_timer_.disarm();
    } else {
      arm_rto();
    }
    if (on_acked && acked_payload > 0) on_acked(acked_payload_bytes_);

    if (fin_acked_ && (state_ == State::kLastAck ||
                       (fin_received_ && state_ == State::kFinWait))) {
      finish();
      return;
    }
    try_send();
    return;
  }

  // ---- Possible duplicate ACK. ----
  // With SACK, only ACKs that carry SACK information count (RFC 6675):
  // a bare duplicate (e.g. triggered by a spuriously retransmitted
  // segment) says nothing about loss.
  const bool informative = !sack_ok_ || !p.tcp.options.sack.empty();
  const bool is_dupack = ack == snd_una_ && snd_nxt_ != snd_una_ &&
                         p.payload_bytes == 0 && !p.tcp.flags.syn &&
                         !p.tcp.flags.fin && !window_changed && informative;
  if (is_dupack) {
    on_dupack(p);
  } else if (window_changed) {
    // A pure window update may unblock the sender.
    try_send();
  }
}

void TcpConnection::on_dupack(const net::Packet& p) {
  (void)p;
  ++dupacks_;
  if (!in_recovery_ && dupacks_ >= 3) {
    enter_recovery();
  } else if (in_recovery_) {
    if (sack_ok_) {
      // SACK-driven recovery: fill further confirmed holes, each at most
      // once.
      if (retransmit_next_hole()) ++stats_.retransmissions;
    } else {
      recovery_inflation_ += 1.0;  // window inflation, allows new data
    }
  }
  try_send();
}

void TcpConnection::enter_recovery() {
  in_recovery_ = true;
  recovery_point_ = snd_nxt_;
  recovery_inflation_ = 0.0;
  cc_state_.ssthresh = cc_->ssthresh_after_loss(cc_state_);
  cc_state_.cwnd = std::max(CongestionControl::kMinCwnd, cc_state_.ssthresh);
  cc_->on_window_reduction(cc_state_);
  trace_cwnd();
  ++stats_.fast_retransmits;
  if (retransmit_first_unsacked()) ++stats_.retransmissions;
  arm_rto();
}

bool TcpConnection::retransmit_first_unsacked() {
  for (TxSegment& seg : segments_) {
    if (seg.sacked) continue;
    if (seq_lt(seg.seq, snd_una_)) continue;
    seg.retransmitted = true;
    send_segment(seg);
    return true;
  }
  return false;
}

bool TcpConnection::retransmit_next_hole() {
  // Retransmit the first never-retransmitted unSACKed segment strictly
  // below the highest SACKed byte (a confirmed hole).
  if (!any_sacked_) return false;
  for (TxSegment& seg : segments_) {
    if (seg.sacked || seg.retransmitted) continue;
    if (seq_lt(seg.seq, snd_una_)) continue;
    if (!seq_lt(seg.seq, highest_sacked_)) break;
    seg.retransmitted = true;
    send_segment(seg);
    return true;
  }
  return false;
}

void TcpConnection::process_payload(const net::Packet& p) {
  const Seq seq = p.tcp.seq;
  const std::uint32_t len = static_cast<std::uint32_t>(p.payload_bytes);
  const Seq seq_end = seq + len + (p.tcp.flags.fin ? 1 : 0);

  // ECN receiver bookkeeping.
  last_segment_ce_ = p.ip.ecn == net::Ecn::kCe;
  if (p.tcp.flags.cwr) ece_latched_ = false;
  if (last_segment_ce_) ece_latched_ = true;

  bool advanced = false;
  if (len > 0) {
    if (seq_le(seq, rcv_nxt_) && seq_gt(seq + len, rcv_nxt_)) {
      // In-order (possibly partially duplicate) data.
      const std::uint32_t fresh = (seq + len) - rcv_nxt_;
      rcv_nxt_ += fresh;
      delivered_bytes_ += fresh;
      advanced = true;
      // Absorb any now-contiguous out-of-order intervals.
      auto it = out_of_order_.begin();
      while (it != out_of_order_.end() && seq_le(it->first, rcv_nxt_)) {
        if (seq_gt(it->second, rcv_nxt_)) {
          const std::uint32_t extra = it->second - rcv_nxt_;
          rcv_nxt_ += extra;
          delivered_bytes_ += extra;
        }
        it = out_of_order_.erase(it);
      }
      if (on_deliver) on_deliver(delivered_bytes_);
    } else if (seq_gt(seq, rcv_nxt_)) {
      // Out of order: remember the interval (merge overlaps).
      Seq start = seq;
      Seq end = seq + len;
      auto it = out_of_order_.begin();
      while (it != out_of_order_.end()) {
        if (seq_le(it->first, end) && seq_ge(it->second, start)) {
          start = seq_min(start, it->first);
          end = seq_max(end, it->second);
          it = out_of_order_.erase(it);
        } else {
          ++it;
        }
      }
      out_of_order_[start] = end;
    }
    // else: entirely duplicate segment; just reACK below.
  }

  if (p.tcp.flags.fin && seq_le(seq + len, rcv_nxt_) &&
      seq_ge(seq_end, rcv_nxt_)) {
    if (!fin_received_) {
      fin_received_ = true;
      rcv_nxt_ += 1;
      advanced = true;
      if (state_ == State::kEstablished) enter_state(State::kCloseWait);
      // The callback may close() us right here; the FIN we then emit acks
      // the peer's FIN (rcv_nxt_ already counts it).
      if (on_peer_fin) on_peer_fin();
    }
  }

  maybe_send_ack(/*forced=*/!advanced || !out_of_order_.empty() ||
                 last_segment_ce_ || fin_received_);

  if (fin_received_ && fin_acked_ && state_ == State::kFinWait) finish();
}

std::uint16_t TcpConnection::advertised_window_raw() const {
  const std::int64_t wnd = config_.receive_buffer_bytes;
  const std::int64_t raw = wnd >> (wscale_ok_ ? config_.window_scale : 0);
  return static_cast<std::uint16_t>(std::min<std::int64_t>(raw, 65535));
}

net::SackBlocks TcpConnection::current_sack_blocks() const {
  net::SackBlocks blocks;
  if (!sack_ok_) return blocks;
  for (const auto& [start, end] : out_of_order_) {
    blocks.push_back(net::SackBlock{start, end});
    if (blocks.size() == 3) break;
  }
  return blocks;
}

void TcpConnection::send_ack_now() {
  pending_ack_segments_ = 0;
  delack_timer_.disarm();
  auto p = net::make_packet();
  p->ip.src = local_.ip;
  p->ip.dst = remote_.ip;
  p->tcp.src_port = local_.port;
  p->tcp.dst_port = remote_.port;
  p->tcp.seq = snd_nxt_;
  p->tcp.ack_seq = rcv_nxt_;
  p->tcp.flags.ack = true;
  if (ecn_ok_ && config_.ect_on_control) p->ip.ecn = net::Ecn::kEct0;
  p->tcp.flags.ece =
      ecn_ok_ && (dctcp_echo_ ? last_segment_ce_ : ece_latched_);
  p->tcp.window_raw = advertised_window_raw();
  p->tcp.options.sack = current_sack_blocks();
  ++stats_.segments_sent;
  transmit(std::move(p));
}

void TcpConnection::maybe_send_ack(bool forced) {
  if (!config_.delayed_ack || forced || dctcp_echo_) {
    send_ack_now();
    return;
  }
  if (++pending_ack_segments_ >= 2) {
    send_ack_now();
    return;
  }
  if (!delack_timer_.armed()) delack_timer_.arm(config_.delayed_ack_timeout);
}

// --------------------------------------------------------------------- RTO

void TcpConnection::arm_rto() { rto_timer_.arm(rtt_.rto() * rto_backoff_); }

void TcpConnection::on_rto_fire() {
  cc_state_.now = sim_->now();
  ++stats_.rtos;
  rto_backoff_ = std::min(rto_backoff_ * 2, kMaxRtoBackoff);

  if (state_ == State::kSynSent || state_ == State::kSynReceived) {
    if (!segments_.empty()) {
      ++stats_.retransmissions;
      segments_.front().retransmitted = true;
      send_segment(segments_.front());
    }
    arm_rto();
    return;
  }
  if (snd_una_ == snd_nxt_) return;  // nothing outstanding

  cc_state_.ssthresh = cc_->ssthresh_after_loss(cc_state_);
  cc_state_.cwnd = 1.0;
  cc_->on_rto(cc_state_);
  trace_cwnd();
  in_recovery_ = false;
  dupacks_ = 0;
  recovery_inflation_ = 0.0;
  // Conservatively forget SACK information (the reordering picture is
  // stale) and start a fresh go-back-N retransmission round.
  for (TxSegment& seg : segments_) {
    seg.sacked = false;
    seg.retransmitted = false;
  }
  any_sacked_ = false;
  in_rto_recovery_ = true;
  rto_recovery_point_ = snd_nxt_;
  if (!segments_.empty()) {
    ++stats_.retransmissions;
    segments_.front().retransmitted = true;
    send_segment(segments_.front());
  }
  arm_rto();
}

// ----------------------------------------------------------------- tracing

void TcpConnection::enter_state(State next) {
  if (next == state_) return;
  const State prev = state_;
  state_ = next;
  if (tap_) {
    tap_.emit(obs::EventType::kConnState, sim_->now(), flow(),
              static_cast<std::int64_t>(next),
              static_cast<std::int64_t>(prev));
  }
}

void TcpConnection::trace_cwnd() {
  if (tap_) {
    // x: cwnd in packets, as the CC modules reason about it.
    tap_.emit(obs::EventType::kTcpCwnd, sim_->now(), flow(), cwnd_bytes(),
              static_cast<std::int64_t>(cc_state_.ssthresh *
                                        static_cast<double>(cc_state_.mss)),
              cc_state_.cwnd);
  }
}

}  // namespace acdc::tcp
