// Directional 5-tuple flow identity (§4: "flows are hashed on a 5-tuple ...
// to obtain a flow's state"; the VLAN id of the paper's tuple is constant in
// our single-tenant simulations and omitted).
#pragma once

#include <cstddef>
#include <cstdint>

#include "net/packet.h"
#include "sim/hash.h"

namespace acdc::vswitch {

struct FlowKey {
  net::IpAddr src_ip = 0;
  net::IpAddr dst_ip = 0;
  net::TcpPort src_port = 0;
  net::TcpPort dst_port = 0;

  bool operator==(const FlowKey&) const = default;

  FlowKey reversed() const {
    return FlowKey{dst_ip, src_ip, dst_port, src_port};
  }

  static FlowKey from_packet(const net::Packet& p) {
    return FlowKey{p.ip.src, p.ip.dst, p.tcp.src_port, p.tcp.dst_port};
  }

  obs::Flow flow() const { return {src_ip, dst_ip, src_port, dst_port}; }
};

struct FlowKeyHash {
  std::size_t operator()(const FlowKey& k) const {
    // The shared 4-tuple hash (sim/hash.h), then a murmur3-style
    // finalizer. The finalizer is load-bearing: FNV's multiply only
    // carries entropy *upward*, so without it bit i of the hash never sees
    // input bits above i — and a power-of-two table indexed by the low
    // bits would send every flow of one host pair (same IPs, same
    // dst_port, varying src_port mixed in at bits 16..31) to a single home
    // slot, degenerating the probe chain into one cluster the size of the
    // live flow count.
    std::uint64_t h =
        sim::tuple_hash(k.src_ip, k.dst_ip, k.src_port, k.dst_port);
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdull;
    h ^= h >> 33;
    h *= 0xc4ceb9fe1a85ec53ull;
    h ^= h >> 33;
    return static_cast<std::size_t>(h);
  }
};

}  // namespace acdc::vswitch
