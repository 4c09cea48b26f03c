#include "net/wire.h"

#include <cassert>
#include <cstring>

namespace acdc::net::wire {
namespace {

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v & 0xff));
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v >> 24));
  out.push_back(static_cast<std::uint8_t>((v >> 16) & 0xff));
  out.push_back(static_cast<std::uint8_t>((v >> 8) & 0xff));
  out.push_back(static_cast<std::uint8_t>(v & 0xff));
}

std::uint16_t get_u16(std::span<const std::uint8_t> d, std::size_t off) {
  return static_cast<std::uint16_t>((d[off] << 8) | d[off + 1]);
}

std::uint32_t get_u32(std::span<const std::uint8_t> d, std::size_t off) {
  return (static_cast<std::uint32_t>(d[off]) << 24) |
         (static_cast<std::uint32_t>(d[off + 1]) << 16) |
         (static_cast<std::uint32_t>(d[off + 2]) << 8) |
         static_cast<std::uint32_t>(d[off + 3]);
}

void set_u16(std::span<std::uint8_t> d, std::size_t off, std::uint16_t v) {
  d[off] = static_cast<std::uint8_t>(v >> 8);
  d[off + 1] = static_cast<std::uint8_t>(v & 0xff);
}

std::uint8_t flags_byte(const TcpFlags& f) {
  std::uint8_t b = 0;
  if (f.cwr) b |= 0x80;
  if (f.ece) b |= 0x40;
  if (f.ack) b |= 0x10;
  if (f.psh) b |= 0x08;
  if (f.rst) b |= 0x04;
  if (f.syn) b |= 0x02;
  if (f.fin) b |= 0x01;
  return b;
}

TcpFlags parse_flags(std::uint8_t b) {
  TcpFlags f;
  f.cwr = (b & 0x80) != 0;
  f.ece = (b & 0x40) != 0;
  f.ack = (b & 0x10) != 0;
  f.psh = (b & 0x08) != 0;
  f.rst = (b & 0x04) != 0;
  f.syn = (b & 0x02) != 0;
  f.fin = (b & 0x01) != 0;
  return f;
}

// Pseudo-header sum for the TCP checksum.
std::uint32_t pseudo_header_sum(const Ipv4Header& ip,
                                std::uint32_t tcp_length) {
  std::uint32_t sum = 0;
  sum += (ip.src >> 16) & 0xffff;
  sum += ip.src & 0xffff;
  sum += (ip.dst >> 16) & 0xffff;
  sum += ip.dst & 0xffff;
  sum += ip.protocol;
  sum += tcp_length & 0xffff;
  sum += tcp_length >> 16;
  return sum;
}

}  // namespace

std::uint32_t checksum_accumulate(std::span<const std::uint8_t> data,
                                  std::uint32_t initial) {
  std::uint32_t sum = initial;
  std::size_t i = 0;
  for (; i + 1 < data.size(); i += 2) {
    sum += static_cast<std::uint32_t>((data[i] << 8) | data[i + 1]);
  }
  if (i < data.size()) {
    sum += static_cast<std::uint32_t>(data[i] << 8);
  }
  return sum;
}

std::uint16_t checksum_finish(std::uint32_t sum) {
  while (sum >> 16) sum = (sum & 0xffff) + (sum >> 16);
  return static_cast<std::uint16_t>(~sum & 0xffff);
}

std::uint16_t checksum_update_u16(std::uint16_t old_checksum,
                                  std::uint16_t old_word,
                                  std::uint16_t new_word) {
  // RFC 1624 eqn. 3: HC' = ~(~HC + ~m + m').
  std::uint32_t sum = static_cast<std::uint16_t>(~old_checksum);
  sum += static_cast<std::uint16_t>(~old_word);
  sum += new_word;
  while (sum >> 16) sum = (sum & 0xffff) + (sum >> 16);
  return static_cast<std::uint16_t>(~sum & 0xffff);
}

std::vector<std::uint8_t> serialize(const Packet& packet) {
  const TcpOptions& opts = packet.tcp.options;
  const std::uint8_t opt_len = opts.wire_size();
  assert(opt_len <= 40 && "TCP options exceed the 60-byte header limit");
  const std::uint8_t tcp_header_len =
      static_cast<std::uint8_t>(kTcpBaseHeaderBytes + opt_len);
  const std::uint32_t tcp_len =
      tcp_header_len + static_cast<std::uint32_t>(packet.payload_bytes);
  const std::uint16_t total_len =
      static_cast<std::uint16_t>(kIpv4HeaderBytes + tcp_len);

  std::vector<std::uint8_t> out;
  out.reserve(kIpv4HeaderBytes + tcp_header_len);

  // ---- IPv4 header ----
  out.push_back(0x45);  // version 4, IHL 5
  out.push_back(static_cast<std::uint8_t>(
      (packet.ip.dscp << 2) | static_cast<std::uint8_t>(packet.ip.ecn)));
  put_u16(out, total_len);
  put_u16(out, packet.ip.id);
  put_u16(out, 0x4000);  // DF, no fragments
  out.push_back(packet.ip.ttl);
  out.push_back(packet.ip.protocol);
  put_u16(out, 0);  // checksum placeholder
  put_u32(out, packet.ip.src);
  put_u32(out, packet.ip.dst);
  const std::uint16_t ip_csum = checksum_finish(
      checksum_accumulate(std::span(out.data(), kIpv4HeaderBytes)));
  set_u16(std::span(out), 10, ip_csum);

  // ---- TCP header ----
  const std::size_t tcp_off = out.size();
  put_u16(out, packet.tcp.src_port);
  put_u16(out, packet.tcp.dst_port);
  put_u32(out, packet.tcp.seq);
  put_u32(out, packet.tcp.ack_seq);
  // Data offset in 32-bit words, NS bit in bit 0.
  out.push_back(static_cast<std::uint8_t>(((tcp_header_len / 4) << 4) |
                                          (packet.tcp.reserved_vm_ecn ? 1 : 0)));
  out.push_back(flags_byte(packet.tcp.flags));
  put_u16(out, packet.tcp.window_raw);
  put_u16(out, 0);  // checksum placeholder
  put_u16(out, 0);  // urgent pointer

  // ---- Options ----
  const std::size_t opts_start = out.size();
  if (opts.mss) {
    out.push_back(kOptMss);
    out.push_back(4);
    put_u16(out, *opts.mss);
  }
  if (opts.window_scale) {
    out.push_back(kOptWindowScale);
    out.push_back(3);
    out.push_back(*opts.window_scale);
  }
  if (opts.sack_permitted) {
    out.push_back(kOptSackPermitted);
    out.push_back(2);
  }
  if (!opts.sack.empty()) {
    out.push_back(kOptSack);
    out.push_back(static_cast<std::uint8_t>(2 + 8 * opts.sack.size()));
    for (const SackBlock& b : opts.sack) {
      put_u32(out, b.start);
      put_u32(out, b.end);
    }
  }
  if (opts.acdc) {
    out.push_back(kOptAcdcFeedback);
    out.push_back(opts.acdc->telemetry ? 26 : 10);
    put_u32(out, opts.acdc->total_bytes);
    put_u32(out, opts.acdc->marked_bytes);
    if (opts.acdc->telemetry) {
      put_u32(out, opts.acdc->telem.qlen_bytes);
      put_u32(out, opts.acdc->telem.tx_bytes_per_ms);
      put_u32(out, opts.acdc->telem.fair_bytes_per_ms);
      put_u32(out, opts.acdc->telem.ts_us);
    }
  }
  while ((out.size() - opts_start) % 4 != 0) out.push_back(kOptNop);
  assert(out.size() - opts_start == opt_len);

  // ---- TCP checksum (payload treated as zeros; only its length counts) ----
  std::uint32_t sum = pseudo_header_sum(packet.ip, tcp_len);
  sum = checksum_accumulate(
      std::span(out.data() + tcp_off, out.size() - tcp_off), sum);
  const std::uint16_t tcp_csum = checksum_finish(sum);
  set_u16(std::span(out), tcp_off + 16, tcp_csum);

  return out;
}

std::optional<ParseResult> parse(std::span<const std::uint8_t> data) {
  if (data.size() < static_cast<std::size_t>(kIpv4HeaderBytes)) {
    return std::nullopt;
  }
  if ((data[0] >> 4) != 4 || (data[0] & 0x0f) != 5) return std::nullopt;

  ParseResult result;
  Packet& p = result.packet;
  p.ip.dscp = static_cast<std::uint8_t>(data[1] >> 2);
  p.ip.ecn = static_cast<Ecn>(data[1] & 0x3);
  const std::uint16_t total_len = get_u16(data, 2);
  p.ip.id = get_u16(data, 4);
  p.ip.ttl = data[8];
  p.ip.protocol = data[9];
  p.ip.src = get_u32(data, 12);
  p.ip.dst = get_u32(data, 16);
  result.ip_checksum_ok =
      checksum_finish(checksum_accumulate(data.subspan(0, 20))) == 0;

  if (data.size() < 20 + 20) return std::nullopt;
  auto tcp = data.subspan(20);
  p.tcp.src_port = get_u16(tcp, 0);
  p.tcp.dst_port = get_u16(tcp, 2);
  p.tcp.seq = get_u32(tcp, 4);
  p.tcp.ack_seq = get_u32(tcp, 8);
  const std::uint8_t data_offset_words = static_cast<std::uint8_t>(tcp[12] >> 4);
  p.tcp.reserved_vm_ecn = (tcp[12] & 0x01) != 0;
  p.tcp.flags = parse_flags(tcp[13]);
  p.tcp.window_raw = get_u16(tcp, 14);

  const std::size_t tcp_header_len = data_offset_words * 4u;
  if (tcp_header_len < 20 || tcp.size() < tcp_header_len) return std::nullopt;
  if (total_len < 20 + tcp_header_len) return std::nullopt;
  p.payload_bytes = total_len - 20 - static_cast<std::int64_t>(tcp_header_len);

  // Options.
  std::size_t i = 20;
  while (i < tcp_header_len) {
    const std::uint8_t kind = tcp[i];
    if (kind == kOptEnd) break;
    if (kind == kOptNop) {
      ++i;
      continue;
    }
    if (i + 1 >= tcp_header_len) return std::nullopt;
    const std::uint8_t len = tcp[i + 1];
    if (len < 2 || i + len > tcp_header_len) return std::nullopt;
    switch (kind) {
      case kOptMss:
        if (len != 4) return std::nullopt;
        p.tcp.options.mss = get_u16(tcp, i + 2);
        break;
      case kOptWindowScale:
        if (len != 3) return std::nullopt;
        p.tcp.options.window_scale = tcp[i + 2];
        break;
      case kOptSackPermitted:
        if (len != 2) return std::nullopt;
        p.tcp.options.sack_permitted = true;
        break;
      case kOptSack: {
        if ((len - 2) % 8 != 0) return std::nullopt;
        for (std::size_t b = i + 2; b + 8 <= i + len; b += 8) {
          // The 4-bit data offset caps options at 40 bytes, so no legal
          // header carries a 5th block; the bytes come from outside, so the
          // bound is checked rather than assumed.
          if (p.tcp.options.sack.size() == SackBlocks::kCapacity) {
            return std::nullopt;
          }
          p.tcp.options.sack.push_back(
              SackBlock{get_u32(tcp, b), get_u32(tcp, b + 4)});
        }
        break;
      }
      case kOptAcdcFeedback: {
        // 10 = classic totals-only shape; 26 = extended telemetry shape.
        if (len != 10 && len != 26) return std::nullopt;
        AcdcFeedback fb;
        fb.total_bytes = get_u32(tcp, i + 2);
        fb.marked_bytes = get_u32(tcp, i + 6);
        if (len == 26) {
          fb.telemetry = true;
          fb.telem.qlen_bytes = get_u32(tcp, i + 10);
          fb.telem.tx_bytes_per_ms = get_u32(tcp, i + 14);
          fb.telem.fair_bytes_per_ms = get_u32(tcp, i + 18);
          fb.telem.ts_us = get_u32(tcp, i + 22);
        }
        p.tcp.options.acdc = fb;
        break;
      }
      default:
        break;  // Unknown options are skipped.
    }
    i += len;
  }

  // TCP checksum (payload is zeros by construction, contributes nothing).
  const std::uint32_t tcp_len =
      static_cast<std::uint32_t>(tcp_header_len + p.payload_bytes);
  std::uint32_t sum = pseudo_header_sum(p.ip, tcp_len);
  sum = checksum_accumulate(tcp.subspan(0, tcp_header_len), sum);
  result.tcp_checksum_ok = checksum_finish(sum) == 0;
  return result;
}

void rewrite_window_in_place(std::span<std::uint8_t> buffer,
                             std::uint16_t new_window_raw) {
  assert(buffer.size() >= 20 + 20);
  const std::size_t win_off = 20 + 14;
  const std::size_t csum_off = 20 + 16;
  const std::uint16_t old_window =
      static_cast<std::uint16_t>((buffer[win_off] << 8) | buffer[win_off + 1]);
  const std::uint16_t old_csum =
      static_cast<std::uint16_t>((buffer[csum_off] << 8) | buffer[csum_off + 1]);
  const std::uint16_t new_csum =
      checksum_update_u16(old_csum, old_window, new_window_raw);
  set_u16(buffer, win_off, new_window_raw);
  set_u16(buffer, csum_off, new_csum);
}

void set_ecn_in_place(std::span<std::uint8_t> buffer, Ecn ecn) {
  assert(buffer.size() >= 20);
  const std::uint16_t old_word =
      static_cast<std::uint16_t>((buffer[0] << 8) | buffer[1]);
  buffer[1] = static_cast<std::uint8_t>((buffer[1] & ~0x3) |
                                        static_cast<std::uint8_t>(ecn));
  const std::uint16_t new_word =
      static_cast<std::uint16_t>((buffer[0] << 8) | buffer[1]);
  const std::uint16_t old_csum =
      static_cast<std::uint16_t>((buffer[10] << 8) | buffer[11]);
  const std::uint16_t new_csum =
      checksum_update_u16(old_csum, old_word, new_word);
  set_u16(buffer, 10, new_csum);
}

}  // namespace acdc::net::wire
