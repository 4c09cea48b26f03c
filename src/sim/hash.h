// The hashes the simulator shares across layers, both FNV-1a (64-bit
// prime) in two shapes:
//
//  - fnv1a / fnv1a_word: textbook byte-wise FNV-1a. The checked-run
//    digests, the CC matrix report digests and Port's same-tick delivery
//    tie key (net/port.cc) fold with it, from the standard offset basis.
//  - tuple_hash: a word-wise variant over a directional TCP 4-tuple. It is
//    the whole of the switches' ECMP hash and of the telemetry sampler's
//    distinct-flow key, and the first half of the vSwitch's FlowKeyHash
//    (acdc/flow_key.h), which adds a murmur3 finalizer on top.
#pragma once

#include <cstddef>
#include <cstdint>

namespace acdc::sim {

inline constexpr std::uint64_t kFnvPrime = 1099511628211ull;
inline constexpr std::uint64_t kFnvOffsetBasis = 14695981039346656037ull;

// tuple_hash's seed: FNV's offset basis with its last digit dropped. It
// stays because it places every flow-table slot, every ECMP uplink choice
// and every telemetry distinct-flow count, so any other value changes
// every simulation digest.
inline constexpr std::uint64_t kTupleHashSeed = 1469598103934665603ull;

// One FNV-1a step over one byte.
inline constexpr std::uint64_t fnv1a_byte(std::uint64_t h, std::uint8_t b) {
  return (h ^ b) * kFnvPrime;
}

// FNV-1a over `n` bytes, continuing from `h` (kFnvOffsetBasis to start).
inline std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) h = fnv1a_byte(h, p[i]);
  return h;
}

// FNV-1a over the eight bytes of `v`, low byte first, on any host.
inline constexpr std::uint64_t fnv1a_word(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h = fnv1a_byte(h, static_cast<std::uint8_t>(v >> (8 * i)));
  }
  return h;
}

// Directional 4-tuple hash: three whole-word FNV-1a steps from
// kTupleHashSeed over the source IP, the destination IP and
// (src_port << 16) | dst_port.
//
// It is not symmetric. The source is mixed before the destination and the
// ports pack source-high, so a connection's data direction and its ACK
// direction hash independently. As the ECMP hash (net/switch.cc) that
// means the two directions of one connection may cross different spines.
// Only leaves choose (spines route down by explicit per-host routes), and
// every leaf uses this one function with no per-switch salt.
//
// The multiply only carries entropy upward: bit i of the result never sees
// input bits above i, which is why FlowKeyHash adds a finalizer before it
// masks to table slots.
inline constexpr std::uint64_t tuple_hash(std::uint32_t src_ip,
                                          std::uint32_t dst_ip,
                                          std::uint16_t src_port,
                                          std::uint16_t dst_port) {
  std::uint64_t h = kTupleHashSeed;
  h = (h ^ src_ip) * kFnvPrime;
  h = (h ^ dst_ip) * kFnvPrime;
  h = (h ^ ((static_cast<std::uint64_t>(src_port) << 16) | dst_port)) *
      kFnvPrime;
  return h;
}

}  // namespace acdc::sim
