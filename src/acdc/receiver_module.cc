#include "acdc/receiver_module.h"

#include "acdc/feedback.h"

namespace acdc::vswitch {

void ReceiverModule::process_ingress_data(net::Packet& packet) {
  FlowRef f =
      core_.entry(FlowKey::from_packet(packet), AcdcCore::kCacheRcvIngressData);
  core_.table.touch(f, core_.sim->now());
  FlowHot& s = *f.hot;
  if (packet.tcp.flags.syn && !packet.tcp.flags.ack && s.fin_seen) {
    core_.reset_entry(f);  // recycled 4-tuple (see SenderModule)
  }

  if (packet.tcp.flags.syn) {
    // The sender vSwitch recorded whether its VM negotiated ECN in the
    // reserved bit (§3.2); remember it and hide the bit from the VM.
    s.rcv_sender_vm_requested_ecn = packet.tcp.reserved_vm_ecn;
    packet.tcp.reserved_vm_ecn = false;
  }
  if (packet.tcp.flags.fin || packet.tcp.flags.rst) s.fin_seen = true;

  // Record and strip the INT telemetry stamp: the latest data-path sample
  // is echoed to the sender on the next PACK/FACK; the VM never sees it.
  if (packet.telem.has_value()) {
    if (packet.payload_bytes > 0) {
      f.cold->telem = *packet.telem;
      s.rcv_telem_valid = true;
    }
    packet.telem.reset();
  }

  if (packet.payload_bytes <= 0) return;
  ++core_.stats.ingress_data_packets;
  s.rcv_active = true;
  s.rcv_total_bytes += static_cast<std::uint32_t>(packet.payload_bytes);
  if (packet.ip.ecn == net::Ecn::kCe) {
    s.rcv_marked_bytes += static_cast<std::uint32_t>(packet.payload_bytes);
  }

  if (core_.config.enforce) {
    // Hide congestion marks from the VM: an ECN-capable VM keeps seeing
    // ECT(0) (so its own stack never reacts, §3.2); a non-ECN VM sees the
    // original Not-ECT.
    const net::Ecn before = packet.ip.ecn;
    if (s.rcv_vm_ecn_negotiated) {
      if (packet.ip.ecn == net::Ecn::kCe) packet.ip.ecn = net::Ecn::kEct0;
    } else {
      packet.ip.ecn = net::Ecn::kNotEct;
    }
    if (packet.ip.ecn != before && core_.tap) {
      core_.tap.emit(obs::EventType::kEcnStrip, core_.sim->now(),
                     f.key->flow(), packet.payload_bytes,
                     before == net::Ecn::kCe ? 1 : 0);
    }
  }
}

void ReceiverModule::process_egress_ack(
    net::Packet& ack, const std::function<void(net::PacketPtr)>& emit) {
  // The ACK acknowledges the reverse flow — the data direction we count.
  FlowRef f = core_.find(FlowKey::from_packet(ack).reversed(),
                         AcdcCore::kCacheRcvEgressAck);
  if (!f) return;
  core_.table.touch(f, core_.sim->now());
  FlowHot& s = *f.hot;

  // Record the local VM's ECN acceptance from its SYN-ACK as it passes.
  if (ack.tcp.flags.syn) {
    s.rcv_vm_ecn_negotiated =
        s.rcv_sender_vm_requested_ecn && ack.tcp.flags.ece;
    return;  // no feedback on handshake packets
  }
  if (!s.rcv_active) return;

  const std::optional<net::TelemetryStamp> telem =
      s.rcv_telem_valid ? std::optional<net::TelemetryStamp>(f.cold->telem)
                        : std::nullopt;
  const bool packed = attach_pack(ack, s.rcv_total_bytes, s.rcv_marked_bytes,
                                  core_.config.mtu_bytes, telem);
  if (packed) {
    ++core_.stats.packs_attached;
  } else {
    ++core_.stats.facks_sent;
    emit(make_fack(ack, s.rcv_total_bytes, s.rcv_marked_bytes, telem));
  }
  if (core_.tap) {
    core_.tap.emit(
        packed ? obs::EventType::kPackAttached : obs::EventType::kFackEmitted,
        core_.sim->now(), f.key->flow(), s.rcv_total_bytes,
        s.rcv_marked_bytes);
  }
}

}  // namespace acdc::vswitch
