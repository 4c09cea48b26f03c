// Byte-level wire codec for the simulator's structured packets.
//
// AC/DC's datapath rewrites live TCP/IP headers (RWND overwrite, ECN bits,
// PACK insertion/stripping) and must keep checksums valid (§4: "modifies RWND
// with a memcpy ... recomputes the IP checksum"). This module implements the
// real RFC 791/793 layouts, RFC 1071 checksums and RFC 1624 incremental
// checksum updates so those operations can be exercised and benchmarked on
// actual bytes. Payload bytes are synthetic zeros; only headers are stored.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "net/packet.h"

namespace acdc::net::wire {

// TCP option kinds used by the codec.
inline constexpr std::uint8_t kOptEnd = 0;
inline constexpr std::uint8_t kOptNop = 1;
inline constexpr std::uint8_t kOptMss = 2;
inline constexpr std::uint8_t kOptWindowScale = 3;
inline constexpr std::uint8_t kOptSackPermitted = 4;
inline constexpr std::uint8_t kOptSack = 5;
// Experimental option kind carrying AC/DC PACK feedback (total bytes,
// CE-marked bytes), 10 bytes total.
inline constexpr std::uint8_t kOptAcdcFeedback = 253;

// RFC 1071 one's-complement sum over `data`, starting from `initial`
// (a partial sum, not a folded checksum).
std::uint32_t checksum_accumulate(std::span<const std::uint8_t> data,
                                  std::uint32_t initial = 0);

// Folds an accumulated sum and complements it into a checksum field value.
std::uint16_t checksum_finish(std::uint32_t sum);

// RFC 1624 incremental update: new checksum after a 16-bit word changes.
std::uint16_t checksum_update_u16(std::uint16_t old_checksum,
                                  std::uint16_t old_word,
                                  std::uint16_t new_word);

// Serialises IP + TCP headers (options included, NOP-padded) into bytes.
// The IP total-length field covers the synthetic payload, which is not
// appended. The TCP checksum is computed as if the payload were zeros.
std::vector<std::uint8_t> serialize(const Packet& packet);

struct ParseResult {
  Packet packet;
  bool ip_checksum_ok = false;
  bool tcp_checksum_ok = false;
};

// Parses bytes produced by serialize() (or by the in-place mutators below).
// Returns nullopt on malformed input.
std::optional<ParseResult> parse(std::span<const std::uint8_t> data);

// --- In-place datapath mutations (operate on a serialized buffer) ---------

// Overwrites the raw TCP receive window and incrementally fixes the TCP
// checksum. This is the §3.3 enforcement write.
void rewrite_window_in_place(std::span<std::uint8_t> buffer,
                             std::uint16_t new_window_raw);

// Sets the IP ECN codepoint and incrementally fixes the IP checksum.
void set_ecn_in_place(std::span<std::uint8_t> buffer, Ecn ecn);

}  // namespace acdc::net::wire
