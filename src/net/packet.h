// Packet model: structured IPv4 + TCP headers, ECN codepoints and the TCP
// options AC/DC cares about (MSS, window scale, SACK, and the AC/DC PACK
// congestion-feedback option carried as an experimental TCP option).
//
// The simulator moves packets around as PacketPtr — a unique_ptr whose
// deleter recycles the object through net::PacketPool, so steady-state
// forwarding performs no heap traffic (see net/packet_pool.h). Payload bytes
// are synthetic (only the size is tracked). A separate wire codec
// (net/wire.h) serialises these structures to real RFC-layout bytes with
// checksums; it backs the datapath microbenchmarks and codec tests.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "obs/trace_event.h"
#include "sim/check.h"
#include "sim/time.h"

namespace acdc::net {

using IpAddr = std::uint32_t;
using TcpPort = std::uint16_t;

// Builds an address in dotted-quad order: ip(10,0,0,1) == "10.0.0.1".
constexpr IpAddr make_ip(std::uint8_t a, std::uint8_t b, std::uint8_t c,
                         std::uint8_t d) {
  return (static_cast<IpAddr>(a) << 24) | (static_cast<IpAddr>(b) << 16) |
         (static_cast<IpAddr>(c) << 8) | static_cast<IpAddr>(d);
}

std::string ip_to_string(IpAddr addr);

// RFC 3168 ECN codepoints in the IP header.
enum class Ecn : std::uint8_t {
  kNotEct = 0b00,
  kEct1 = 0b01,
  kEct0 = 0b10,
  kCe = 0b11,
};

inline bool ecn_capable(Ecn e) { return e != Ecn::kNotEct; }

struct Ipv4Header {
  IpAddr src = 0;
  IpAddr dst = 0;
  std::uint8_t ttl = 64;
  std::uint8_t protocol = 6;  // TCP
  std::uint8_t dscp = 0;
  Ecn ecn = Ecn::kNotEct;
  std::uint16_t id = 0;
};

struct TcpFlags {
  bool syn = false;
  bool ack = false;
  bool fin = false;
  bool rst = false;
  bool psh = false;
  bool ece = false;  // ECN-Echo
  bool cwr = false;  // Congestion Window Reduced

  bool operator==(const TcpFlags&) const = default;
};

struct SackBlock {
  std::uint32_t start = 0;  // inclusive
  std::uint32_t end = 0;    // exclusive

  bool operator==(const SackBlock&) const = default;
};

// INT-style egress telemetry stamped onto packets by switch ports
// (net/telemetry.h) and echoed to the sender-side vSwitch inside the PACK/
// FACK option. Rates are bytes per millisecond so a uint32 spans past
// 30 Tbit/s; the timestamp is microseconds truncated to 32 bits (gradient
// computations difference it, so wrap-around is harmless).
struct TelemetryStamp {
  std::uint32_t qlen_bytes = 0;        // egress queue depth after dequeue
  std::uint32_t tx_bytes_per_ms = 0;   // egress port drain rate
  std::uint32_t fair_bytes_per_ms = 0; // per-flow fair share at the port
  std::uint32_t ts_us = 0;             // stamping hop's clock, µs, wraps

  bool operator==(const TelemetryStamp&) const = default;
};

// AC/DC congestion feedback (§3.2): running totals of bytes received and
// bytes received with CE set, maintained by the receiver-side vSwitch and
// reported back to the sender-side vSwitch. 8 bytes on the wire plus
// kind/length, carried as experimental TCP option kind 253. When the
// receiver vSwitch has fresh INT telemetry for the flow it appends the
// four TelemetryStamp words, growing the option from 10 to 26 bytes
// (DESIGN.md §13); `telemetry` distinguishes the two wire shapes.
struct AcdcFeedback {
  AcdcFeedback() = default;
  // The common classic-option shape: counters only, no telemetry block.
  AcdcFeedback(std::uint32_t total, std::uint32_t marked)
      : total_bytes(total), marked_bytes(marked) {}

  std::uint32_t total_bytes = 0;
  std::uint32_t marked_bytes = 0;
  bool telemetry = false;  // extended option shape carrying `telem`
  TelemetryStamp telem;

  bool operator==(const AcdcFeedback&) const = default;
};

// The SACK blocks of one header, stored inline. A legal TCP header holds at
// most 4: options get at most 40 bytes and a one-block option takes 10
// (four blocks fit in one 34-byte option). TCP emits at most 3
// (TcpConnection::current_sack_blocks), and wire::parse rejects a header
// that would need a 5th, so a push past capacity is a program bug.
class SackBlocks {
 public:
  static constexpr std::size_t kCapacity = 4;

  SackBlocks() = default;
  SackBlocks(std::initializer_list<SackBlock> init) {
    for (const SackBlock& b : init) push_back(b);
  }

  void push_back(const SackBlock& b) {
    ACDC_CHECK(size_ < kCapacity, "SACK: a header holds at most %zu blocks",
               kCapacity);
    blocks_[size_++] = b;
  }
  void clear() { size_ = 0; }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const SackBlock* begin() const { return blocks_; }
  const SackBlock* end() const { return blocks_ + size_; }
  const SackBlock& operator[](std::size_t i) const { return blocks_[i]; }

  friend bool operator==(const SackBlocks& a, const SackBlocks& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  SackBlock blocks_[kCapacity];
  std::uint32_t size_ = 0;
};

struct TcpOptions {
  std::optional<std::uint16_t> mss;         // kind 2, SYN only
  std::optional<std::uint8_t> window_scale; // kind 3, SYN only
  bool sack_permitted = false;              // kind 4, SYN only
  SackBlocks sack;                          // kind 5, up to 4 blocks
  std::optional<AcdcFeedback> acdc;         // kind 253 (PACK payload)

  // Serialised size in bytes, padded to a multiple of 4. Inline: every
  // queue and port on a packet's path asks for its wire bytes.
  std::uint8_t wire_size() const {
    std::uint32_t n = 0;
    if (mss) n += 4;
    if (window_scale) n += 3;
    if (sack_permitted) n += 2;
    if (!sack.empty()) n += 2 + 8 * static_cast<std::uint32_t>(sack.size());
    // kind + len + two uint32 counters, plus four telemetry words when the
    // extended shape is carried (DESIGN.md §13).
    if (acdc) n += acdc->telemetry ? 26 : 10;
    // Pad with NOPs to a 4-byte boundary, as on the wire.
    return static_cast<std::uint8_t>((n + 3) & ~3u);
  }

  // Back to defaults for pooled reuse.
  void reset_for_reuse() {
    mss.reset();
    window_scale.reset();
    sack_permitted = false;
    sack.clear();
    acdc.reset();
  }

  bool operator==(const TcpOptions&) const = default;
};

struct TcpHeader {
  TcpPort src_port = 0;
  TcpPort dst_port = 0;
  std::uint32_t seq = 0;
  std::uint32_t ack_seq = 0;
  TcpFlags flags;
  // Raw (unscaled) receive window as it appears in the header. The effective
  // window is raw << negotiated-scale except on SYN segments.
  std::uint16_t window_raw = 0;
  // The NS reserved bit, repurposed by AC/DC to remember whether the VM's
  // stack itself negotiated ECN (§3.2).
  bool reserved_vm_ecn = false;
  TcpOptions options;
};

inline constexpr std::int64_t kIpv4HeaderBytes = 20;
inline constexpr std::int64_t kTcpBaseHeaderBytes = 20;
// RFC 793: the data offset field caps the TCP header at 60 bytes, i.e.
// 40 bytes of options.
inline constexpr std::int64_t kMaxTcpOptionBytes = 40;
// Per-frame Ethernet cost: preamble(8) + header(14) + FCS(4) + IFG(12).
inline constexpr std::int64_t kEthernetOverheadBytes = 38;

struct Packet {
  Ipv4Header ip;
  TcpHeader tcp;
  std::int64_t payload_bytes = 0;

  // A FACK (Fake ACK, §3.2) is a vSwitch-generated feedback-only packet; the
  // sender-side vSwitch consumes and drops it. On the wire it is just a TCP
  // ACK carrying the feedback option; this flag models the marker the
  // modules use to recognise their own packets.
  bool acdc_fack = false;

  // In-band telemetry stamped by switch egress ports when telemetry is
  // enabled (net/telemetry.h). Modelled out-of-band like `acdc_fack`: a
  // real deployment would use an INT shim header; here it adds no wire
  // bytes and the vSwitch strips it before the VM, so enabling telemetry
  // does not perturb byte-level behaviour of flows that ignore it.
  std::optional<TelemetryStamp> telem;

  // Simulator bookkeeping (not on the wire).
  std::uint64_t uid = 0;
  sim::Time enqueued_at = 0;

  std::int64_t header_bytes() const {
    return kIpv4HeaderBytes + kTcpBaseHeaderBytes + tcp.options.wire_size();
  }
  // IP packet size.
  std::int64_t size_bytes() const { return header_bytes() + payload_bytes; }
  // Size including Ethernet framing; what links and queues account.
  std::int64_t wire_bytes() const {
    return size_bytes() + kEthernetOverheadBytes;
  }

  // The 4-tuple trace events carry.
  obs::Flow flow() const {
    return {ip.src, ip.dst, tcp.src_port, tcp.dst_port};
  }

  bool is_pure_ack() const {
    return tcp.flags.ack && !tcp.flags.syn && !tcp.flags.fin &&
           !tcp.flags.rst && payload_bytes == 0;
  }

  // Restores the default-constructed state (called by the pool on release).
  void reset_for_reuse() {
    ip = Ipv4Header{};
    tcp.src_port = 0;
    tcp.dst_port = 0;
    tcp.seq = 0;
    tcp.ack_seq = 0;
    tcp.flags = TcpFlags{};
    tcp.window_raw = 0;
    tcp.reserved_vm_ecn = false;
    tcp.options.reset_for_reuse();
    payload_bytes = 0;
    acdc_fack = false;
    telem.reset();
    uid = 0;
    enqueued_at = 0;
  }
};

// Returns packets to the pool instead of the heap (net/packet_pool.cc).
struct PacketDeleter {
  void operator()(Packet* p) const noexcept;
};

using PacketPtr = std::unique_ptr<Packet, PacketDeleter>;

// The only packet factory: serves from the pool's freelist in steady state.
PacketPtr make_packet();

PacketPtr clone_packet(const Packet& p);

// Anything that accepts packets (stacks, NICs, switches, queues, filters).
class PacketSink {
 public:
  virtual ~PacketSink() = default;
  virtual void receive(PacketPtr packet) = 0;

  // Burst delivery: `count` packets handed over in arrival order, DPDK
  // rx-burst style. Semantically identical to `count` receive() calls — the
  // default does exactly that — but sinks with per-packet lookup costs
  // (the AC/DC vSwitch) override it to amortize across the burst. Callers
  // must treat the array's PacketPtrs as consumed.
  virtual void receive_burst(PacketPtr* packets, std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) receive(std::move(packets[i]));
  }
};

}  // namespace acdc::net
