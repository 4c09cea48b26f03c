// The sender-module fixture shared by the vSwitch unit tests: one VM flow
// (kVm:1000 -> kPeer:80) driven through a bare SenderModule, with no hosts
// and no network, by hand-built data and ACK packets.
#pragma once

#include <cstdint>

#include <gtest/gtest.h>

#include "acdc/sender_module.h"
#include "sim/simulator.h"

namespace acdc::vswitch {

inline constexpr net::IpAddr kVm = net::make_ip(10, 0, 0, 1);
inline constexpr net::IpAddr kPeer = net::make_ip(10, 0, 0, 2);

// A VM data segment of `payload` bytes at `seq`.
inline net::Packet data_packet(std::uint32_t seq, std::int64_t payload) {
  net::Packet p;
  p.ip.src = kVm;
  p.ip.dst = kPeer;
  p.tcp.src_port = 1000;
  p.tcp.dst_port = 80;
  p.tcp.seq = seq;
  p.tcp.flags.ack = true;
  p.payload_bytes = payload;
  return p;
}

// The peer's ACK of `ack_seq`, advertising the raw (unscaled) `window_raw`.
inline net::Packet ack_packet(std::uint32_t ack_seq,
                              std::uint16_t window_raw = 65'535) {
  net::Packet p;
  p.ip.src = kPeer;
  p.ip.dst = kVm;
  p.tcp.src_port = 80;
  p.tcp.dst_port = 1000;
  p.tcp.ack_seq = ack_seq;
  p.tcp.flags.ack = true;
  p.tcp.window_raw = window_raw;
  return p;
}

inline FlowKey data_key() { return FlowKey{kVm, kPeer, 1000, 80}; }

class SenderModuleFixture : public ::testing::Test {
 protected:
  SenderModuleFixture() { core_.sim = &sim_; }

  FlowHot& entry() {
    return *core_.entry(data_key(), AcdcCore::kCacheSndEgress).hot;
  }

  // Egress packets are one-shot; an ingress ACK may be an lvalue the test
  // reads back after the module rewrote it.
  bool egress(net::Packet p) { return sender_.process_egress(p); }
  bool ingress(net::Packet& p) { return sender_.process_ingress_ack(p); }
  bool ingress(net::Packet&& p) { return ingress(p); }

  sim::Simulator sim_;
  AcdcCore core_;
  SenderModule sender_{core_};
};

}  // namespace acdc::vswitch
