#include "acdc/sender_module.h"

#include <algorithm>

#include "acdc/feedback.h"
#include "tcp/seq.h"

namespace acdc::vswitch {

using tcp::seq_ge;
using tcp::seq_gt;
using tcp::seq_lt;
using tcp::seq_max;

namespace {

// Extra window slack tolerated before the policer drops, in MSS.
constexpr double kPoliceSlackMss = 4.0;
// Bounds on a flow's inferred RTO; the floor is the paper's RTOmin (§5).
constexpr sim::Time kMinRto = sim::milliseconds(10);
constexpr sim::Time kMaxRto = sim::seconds(4);

}  // namespace

void SenderModule::learn_from_egress_syn(const FlowRef& f,
                                         const net::Packet& syn) {
  FlowHot& s = *f.hot;
  if (syn.tcp.options.mss) {
    s.mss = *syn.tcp.options.mss;
    virtual_cc_for(s.cc_kind).init(s);
  }
  s.vm_requested_ecn = syn.tcp.flags.ece && syn.tcp.flags.cwr;
}

void SenderModule::learn_from_ingress_synack(const FlowRef& f,
                                             const net::Packet& synack) {
  FlowHot& s = *f.hot;
  if (synack.tcp.options.window_scale) {
    s.peer_wscale = *synack.tcp.options.window_scale;
    s.peer_wscale_valid = true;
  }
  if (synack.tcp.options.mss) {
    s.mss = std::min<std::uint32_t>(s.mss, *synack.tcp.options.mss);
    virtual_cc_for(s.cc_kind).init(s);
  }
  s.vm_ecn_negotiated = s.vm_requested_ecn && synack.tcp.flags.ece;
}

void SenderModule::track_sequences(FlowHot& s, const net::Packet& packet,
                                   sim::Time now) {
  const std::uint32_t span =
      static_cast<std::uint32_t>(packet.payload_bytes) +
      (packet.tcp.flags.syn ? 1 : 0) + (packet.tcp.flags.fin ? 1 : 0);
  if (span == 0) return;
  const tcp::Seq seq_end = packet.tcp.seq + span;
  // One RTT sample in flight at a time (RFC 6298 needs no more), armed only
  // on *new* data — handshake segments are excluded so the estimator tracks
  // the data path the virtual CC actually schedules.
  const bool sampleable = packet.payload_bytes > 0 && !packet.tcp.flags.syn;
  if (!s.seq_valid) {
    s.snd_una = packet.tcp.seq;
    s.snd_nxt = seq_end;
    s.seq_valid = true;
    if (sampleable) {
      s.rtt_sample_pending = true;
      s.rtt_sample_end = seq_end;
      s.rtt_sample_sent_at = now;
    }
    return;
  }
  if (seq_gt(seq_end, s.snd_nxt)) {
    s.snd_nxt = seq_max(s.snd_nxt, seq_end);
    if (sampleable && !s.rtt_sample_pending) {
      s.rtt_sample_pending = true;
      s.rtt_sample_end = seq_end;
      s.rtt_sample_sent_at = now;
    }
    return;
  }
  // Retransmission into the sampled range: Karn's rule — the eventual ACK
  // could match either transmission, so the measurement is void.
  if (s.rtt_sample_pending && seq_lt(packet.tcp.seq, s.rtt_sample_end)) {
    s.rtt_sample_pending = false;
  }
}

std::int64_t SenderModule::enforced_window_bytes(const FlowHot& s) const {
  std::int64_t wnd = static_cast<std::int64_t>(s.cwnd_bytes);
  if (s.max_rwnd_bytes > 0) {
    wnd = std::min(wnd, static_cast<std::int64_t>(s.max_rwnd_bytes));
  }
  return std::max(wnd, core_.min_rwnd_bytes(s));
}

bool SenderModule::police(const FlowRef& f, const net::Packet& packet) {
  const FlowHot& s = *f.hot;
  if (!s.police || !core_.config.enforce) return true;
  if (!s.seq_valid || packet.payload_bytes == 0) return true;
  const std::uint32_t span = static_cast<std::uint32_t>(packet.payload_bytes);
  const tcp::Seq seq_end = packet.tcp.seq + span;
  // Retransmissions (at or below snd_nxt) are always allowed.
  if (tcp::seq_le(seq_end, s.snd_nxt)) return true;
  const std::int64_t slack = static_cast<std::int64_t>(
      kPoliceSlackMss * static_cast<double>(s.mss));
  const std::int64_t allowed = std::max<std::int64_t>(
      enforced_window_bytes(s) + slack,
      static_cast<std::int64_t>(kInitialCwndPackets *
                                static_cast<double>(s.mss)));
  const tcp::Seq allowed_end =
      s.snd_una + static_cast<std::uint32_t>(allowed);
  if (seq_gt(seq_end, allowed_end)) {
    ++core_.stats.policed_drops;
    if (core_.tap) {
      core_.tap.emit(obs::EventType::kPolicedDrop, core_.sim->now(),
                     f.key->flow(), packet.payload_bytes, allowed);
    }
    return false;
  }
  return true;
}

bool SenderModule::process_egress(net::Packet& packet) {
  FlowRef f =
      core_.entry(FlowKey::from_packet(packet), AcdcCore::kCacheSndEgress);
  const sim::Time now = core_.sim->now();
  core_.table.touch(f, now);
  FlowHot& s = *f.hot;

  if (packet.tcp.flags.syn && !packet.tcp.flags.ack && s.fin_seen) {
    // Recycled 4-tuple: the previous incarnation FINished but its entry
    // still lingers (GC hasn't swept it). §3.1 allocates flow state on SYN,
    // so a fresh SYN restarts the entry from scratch rather than inheriting
    // stale sequence/CC state.
    core_.reset_entry(f);
  }

  if (packet.tcp.flags.syn) {
    learn_from_egress_syn(f, packet);
    // Repurposed reserved bit: tell the remote vSwitch whether this VM's
    // stack itself negotiated ECN (§3.2).
    packet.tcp.reserved_vm_ecn = s.vm_requested_ecn;
  }
  // FIN and RST both end the flow; either marks the entry for the GC's
  // short fin_linger path (§3.1: state deallocated on FIN or inactivity).
  if (packet.tcp.flags.fin || packet.tcp.flags.rst) s.fin_seen = true;

  // Police against the window *before* admitting the packet's sequence
  // range into snd_nxt (otherwise everything looks like a retransmission).
  if (!police(f, packet)) return false;

  track_sequences(s, packet, now);

  if (packet.payload_bytes > 0) ++core_.stats.egress_data_packets;
  return true;
}

bool SenderModule::process_ingress_ack(net::Packet& packet) {
  // This ACK acknowledges the reverse flow: data we sent.
  FlowRef f = core_.entry(FlowKey::from_packet(packet).reversed(),
                          AcdcCore::kCacheSndIngressAck);
  core_.table.touch(f, core_.sim->now());
  FlowHot& s = *f.hot;
  ++core_.stats.acks_processed;

  if (packet.tcp.flags.syn) {
    learn_from_ingress_synack(f, packet);
  }

  // ---- Feedback extraction (PACK strip / FACK consume, §3.2) ----
  std::int64_t fb_total_delta = 0;
  std::int64_t fb_marked_delta = 0;
  bool fb_telemetry = false;
  net::TelemetryStamp fb_telem;
  if (auto fb = consume_feedback(packet)) {
    // Feedback carries running totals, so a reordered PACK/FACK can report
    // values older than what we already consumed. Serial comparison (the
    // totals wrap mod 2^32) spots the regression; applying it would wrap
    // the deltas to ~2^32 and blow up the marked fraction.
    const bool stale =
        s.fb_valid &&
        (static_cast<std::int32_t>(fb->total_bytes - s.fb_total) < 0 ||
         static_cast<std::int32_t>(fb->marked_bytes - s.fb_marked) < 0);
    if (!stale) {
      fb_total_delta =
          static_cast<std::uint32_t>(fb->total_bytes - s.fb_total);
      fb_marked_delta =
          static_cast<std::uint32_t>(fb->marked_bytes - s.fb_marked);
      // Baseline resync: the receiver's totals are running counters that
      // restart from zero when its vSwitch evicts the flow entry under cap
      // pressure (§4). Once the new incarnation's totals grow past our old
      // baseline the stale test stops firing, but the two deltas straddle
      // the restart and can disagree — up to reporting more newly-marked
      // than newly-sent bytes, which would push the DCTCP fraction (and
      // eventually alpha) above 1. Marked can never exceed total within one
      // receiver incarnation, so clamp and count the resync.
      if (fb_marked_delta > fb_total_delta) {
        fb_marked_delta = fb_total_delta;
        ++core_.stats.feedback_resyncs;
      }
      s.fb_total = fb->total_bytes;
      s.fb_marked = fb->marked_bytes;
      s.fb_valid = true;
      if (fb->telemetry) {
        fb_telemetry = true;
        fb_telem = fb->telem;
      }
    }
  }

  // ---- Connection-tracking update (§3.1) ----
  VccEvent ev;
  ev.now = core_.sim->now();
  ev.fb_total_delta = fb_total_delta;
  ev.fb_marked_delta = fb_marked_delta;
  if (fb_telemetry) {
    ev.telemetry = true;
    ev.qlen_bytes = fb_telem.qlen_bytes;
    ev.tx_bytes_per_ms = fb_telem.tx_bytes_per_ms;
    ev.fair_bytes_per_ms = fb_telem.fair_bytes_per_ms;
    ev.ts_us = fb_telem.ts_us;
  }
  const tcp::Seq ack = packet.tcp.ack_seq;
  if (!s.seq_valid) {
    // Mid-flow adoption: bootstrap from the ACK itself.
    s.snd_una = ack;
    s.snd_nxt = seq_max(s.snd_nxt, ack);
    s.seq_valid = true;
  } else if (seq_gt(ack, s.snd_una) && tcp::seq_le(ack, s.snd_nxt)) {
    ev.acked_bytes = static_cast<std::uint32_t>(ack - s.snd_una);
    s.snd_una = ack;
    s.dupacks = 0;
    // ---- RTT sample completion (RFC 6298) ----
    if (s.rtt_sample_pending && seq_ge(ack, s.rtt_sample_end)) {
      s.rtt_sample_pending = false;
      const sim::Time elapsed = ev.now - s.rtt_sample_sent_at;
      s.rtt.on_sample(
          static_cast<std::uint32_t>(sim::to_microseconds(elapsed)));
      s.rto_backoff = 0;  // fresh evidence the path is alive
      ++core_.stats.rtt_samples;
    }
  } else if (ack == s.snd_una && s.snd_nxt != s.snd_una &&
             packet.is_pure_ack() && !packet.acdc_fack) {
    ++s.dupacks;
    ev.dupack = true;
    ev.dupacks = s.dupacks;
  }
  // Measured per-flow base RTT feeds the telemetry-driven CCs as τ; before
  // the first sample they fall back to the configured fabric estimate.
  if (s.rtt.min_rtt_us > 0) {
    ev.base_rtt_us = static_cast<double>(s.rtt.min_rtt_us);
  }

  // ---- Virtual congestion control (Fig. 5) ----
  if (!packet.tcp.flags.syn) {
    const bool tracing = static_cast<bool>(core_.tap);
    const double cwnd_before = s.cwnd_bytes;
    // Only snapshot alpha when it will be compared: it lives on the flow
    // record's per-window line, which the steady-state ACK path otherwise
    // never has to pull in.
    const double alpha_before = tracing ? s.alpha : 0.0;
    virtual_cc_for(s.cc_kind).on_ack(s, core_.config.vcc, ev);
    if (tracing) {
      if (s.alpha != alpha_before) {
        core_.tap.emit(obs::EventType::kAlphaUpdate, core_.sim->now(),
                       f.key->flow(), fb_marked_delta, fb_total_delta,
                       s.alpha);
      }
      if (s.cwnd_bytes != cwnd_before) {
        core_.tap.emit(obs::EventType::kCwndUpdate, core_.sim->now(),
                       f.key->flow(), static_cast<std::int64_t>(s.cwnd_bytes),
                       static_cast<std::int64_t>(s.ssthresh_bytes), s.alpha);
      }
    }
  }

  if (packet.acdc_fack) {
    ++core_.stats.facks_consumed;
    if (core_.tap) {
      core_.tap.emit(obs::EventType::kFackConsumed, core_.sim->now(),
                     f.key->flow(), fb_total_delta, fb_marked_delta);
    }
    return false;  // FACKs never reach the VM
  }

  // ---- Enforcement (§3.3) ----
  if (!packet.tcp.flags.syn) enforce_window(f, packet);

  // §3.3: hiding ECN-Echo stops the VM stack from reducing on its own.
  if (core_.config.enforce) packet.tcp.flags.ece = false;
  packet.telem.reset();  // INT stamps never cross into the VM

  // Template for §3.3 injection; SYN-ACK windows have different (unscaled)
  // semantics, so only real ACKs qualify.
  if (!packet.tcp.flags.syn) {
    s.last_ack_seq = packet.tcp.ack_seq;
    s.last_ack_raw_window = packet.tcp.window_raw;
    s.ack_seen = true;
  }
  return true;
}

void SenderModule::enforce_window(const FlowRef& f, net::Packet& ack) {
  FlowHot& s = *f.hot;
  const std::int64_t wnd = enforced_window_bytes(s);
  // Saturating narrow: the record keeps 32 bits, and a wire window can
  // never exceed 2^30, so the clamp only ever bites on an uncapped cwnd
  // the ACK rewrite would have clipped to 65535 << wscale anyway.
  s.last_enforced_rwnd = static_cast<std::int32_t>(
      std::min<std::int64_t>(wnd, INT32_MAX));
  // The RWND-enforcement observation point (the Fig. 9/10 "log RWND to a
  // file" analogue). alpha is read only behind the branch: it sits on the
  // record's per-window line, which an untraced ACK never loads.
  if (core_.tap) {
    core_.tap.emit(obs::EventType::kWindowEnforced, core_.sim->now(),
                   f.key->flow(), wnd, static_cast<std::int64_t>(s.cwnd_bytes),
                   s.alpha);
  }
  if (!core_.config.enforce) return;
  const std::uint8_t scale = s.peer_wscale_valid ? s.peer_wscale : 0;
  // Round up so the effective window never falls below the computed one
  // (flooring could leave the VM unable to send even a single MSS).
  std::int64_t raw = (wnd + (std::int64_t{1} << scale) - 1) >> scale;
  if (raw == 0) raw = 1;  // never freeze the flow entirely
  if (raw < static_cast<std::int64_t>(ack.tcp.window_raw)) {
    if (core_.tap) {
      core_.tap.emit(obs::EventType::kRwndClamped, core_.sim->now(),
                     f.key->flow(), wnd,
                     static_cast<std::int64_t>(ack.tcp.window_raw) << scale);
    }
    ack.tcp.window_raw = static_cast<std::uint16_t>(raw);
    ++core_.stats.windows_lowered;
  }
}

int SenderModule::infer_timeouts(sim::Time now) {
  int fired = 0;
  core_.table.for_each([&](const FlowRef& f) {
    FlowHot& s = *f.hot;
    if (!s.seq_valid || !seq_lt(s.snd_una, s.snd_nxt)) return;
    // Per-flow RTO once the estimator has a sample (clamped to
    // [kMinRto, kMaxRto]); the fixed inactivity timeout is the sample-less
    // fallback for flows that stalled before any data round trip.
    sim::Time threshold = core_.config.inactivity_timeout;
    if (s.rtt.valid()) {
      threshold = std::clamp(
          sim::microseconds(
              static_cast<sim::Time>(s.rtt.rto_us(s.rto_backoff))),
          kMinRto, kMaxRto);
    }
    if (now - s.last_activity < threshold) return;
    if (f.cold->last_timeout_at != sim::kNoTime &&
        f.cold->last_timeout_at >= s.last_activity) {
      return;  // already reacted to this stall
    }
    f.cold->last_timeout_at = now;
    if (s.rto_backoff < 15) ++s.rto_backoff;  // exponential RTO backoff
    s.rtt_sample_pending = false;  // Karn: the stalled segment will be
                                   // retransmitted by the VM
    virtual_cc_for(s.cc_kind).on_timeout(s, core_.config.vcc);
    ++core_.stats.inferred_timeouts;
    if (core_.tap) {
      core_.tap.emit(obs::EventType::kTimeoutInferred, core_.sim->now(),
                     f.key->flow(), static_cast<std::int64_t>(s.cwnd_bytes),
                     now - s.last_activity);
    }
    ++fired;
  });
  return fired;
}

}  // namespace acdc::vswitch
