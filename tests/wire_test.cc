// Wire-codec tests: RFC-layout serialisation, checksum validity, PACK
// option round-trips, and the in-place datapath mutations (RWND rewrite,
// ECN set) with incremental checksum updates — the operations AC/DC's OVS
// patch performs on live packets (§4).
#include <gtest/gtest.h>

#include <initializer_list>
#include <random>
#include <vector>

#include "net/packet.h"
#include "net/wire.h"
#include "testlib/seed.h"

namespace acdc::net {
namespace {

Packet sample_packet() {
  Packet p;
  p.ip.src = make_ip(10, 0, 0, 1);
  p.ip.dst = make_ip(10, 0, 0, 2);
  p.ip.ttl = 61;
  p.ip.ecn = Ecn::kEct0;
  p.ip.id = 0x1234;
  p.tcp.src_port = 40'001;
  p.tcp.dst_port = 5001;
  p.tcp.seq = 0xdeadbeef;
  p.tcp.ack_seq = 0x01020304;
  p.tcp.flags.ack = true;
  p.tcp.flags.psh = true;
  p.tcp.window_raw = 4321;
  p.payload_bytes = 1448;
  return p;
}

TEST(WireTest, IpToString) {
  EXPECT_EQ(ip_to_string(make_ip(10, 0, 0, 1)), "10.0.0.1");
  EXPECT_EQ(ip_to_string(make_ip(255, 254, 1, 0)), "255.254.1.0");
}

TEST(WireTest, RoundTripBasic) {
  const Packet p = sample_packet();
  auto bytes = wire::serialize(p);
  EXPECT_EQ(static_cast<std::int64_t>(bytes.size()), p.header_bytes());
  auto parsed = wire::parse(bytes);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->ip_checksum_ok);
  EXPECT_TRUE(parsed->tcp_checksum_ok);
  EXPECT_EQ(parsed->packet.ip.src, p.ip.src);
  EXPECT_EQ(parsed->packet.ip.dst, p.ip.dst);
  EXPECT_EQ(parsed->packet.ip.ecn, p.ip.ecn);
  EXPECT_EQ(parsed->packet.ip.id, p.ip.id);
  EXPECT_EQ(parsed->packet.tcp.seq, p.tcp.seq);
  EXPECT_EQ(parsed->packet.tcp.ack_seq, p.tcp.ack_seq);
  EXPECT_EQ(parsed->packet.tcp.flags, p.tcp.flags);
  EXPECT_EQ(parsed->packet.tcp.window_raw, p.tcp.window_raw);
  EXPECT_EQ(parsed->packet.payload_bytes, p.payload_bytes);
}

TEST(WireTest, RoundTripSynOptions) {
  Packet p = sample_packet();
  p.tcp.flags = TcpFlags{};
  p.tcp.flags.syn = true;
  p.tcp.flags.ece = true;
  p.tcp.flags.cwr = true;
  p.tcp.reserved_vm_ecn = true;
  p.payload_bytes = 0;
  p.tcp.options.mss = 8960;
  p.tcp.options.window_scale = 9;
  p.tcp.options.sack_permitted = true;
  auto parsed = wire::parse(wire::serialize(p));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->tcp_checksum_ok);
  EXPECT_EQ(parsed->packet.tcp.options.mss, 8960);
  EXPECT_EQ(parsed->packet.tcp.options.window_scale, 9);
  EXPECT_TRUE(parsed->packet.tcp.options.sack_permitted);
  EXPECT_TRUE(parsed->packet.tcp.reserved_vm_ecn);
  EXPECT_TRUE(parsed->packet.tcp.flags.syn);
  EXPECT_TRUE(parsed->packet.tcp.flags.ece);
  EXPECT_TRUE(parsed->packet.tcp.flags.cwr);
}

TEST(WireTest, RoundTripSackAndPack) {
  Packet p = sample_packet();
  p.payload_bytes = 0;
  p.tcp.options.sack = {{1000, 2000}, {3000, 4000}, {5000, 6000}};
  p.tcp.options.acdc = AcdcFeedback{123456789u, 987654u};
  auto parsed = wire::parse(wire::serialize(p));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->tcp_checksum_ok);
  ASSERT_EQ(parsed->packet.tcp.options.sack.size(), 3u);
  EXPECT_EQ(parsed->packet.tcp.options.sack[1], (SackBlock{3000, 4000}));
  ASSERT_TRUE(parsed->packet.tcp.options.acdc.has_value());
  EXPECT_EQ(parsed->packet.tcp.options.acdc->total_bytes, 123456789u);
  EXPECT_EQ(parsed->packet.tcp.options.acdc->marked_bytes, 987654u);
}

// `p` serialised with `options` spliced in as its raw option bytes (a
// multiple of 4); the checksums are left stale.
std::vector<std::uint8_t> with_raw_options(
    const Packet& p, const std::vector<std::uint8_t>& options) {
  std::vector<std::uint8_t> bytes = wire::serialize(p);
  bytes.insert(bytes.begin() + 40, options.begin(), options.end());
  const auto words = static_cast<std::uint8_t>((20 + options.size()) / 4);
  bytes[32] = static_cast<std::uint8_t>((words << 4) | (bytes[32] & 0x0f));
  const std::size_t total =
      (std::size_t{bytes[2]} << 8 | bytes[3]) + options.size();
  bytes[2] = static_cast<std::uint8_t>(total >> 8);
  bytes[3] = static_cast<std::uint8_t>(total);
  return bytes;
}

void put_sack_option(std::vector<std::uint8_t>& out,
                     std::initializer_list<SackBlock> blocks) {
  out.push_back(5);  // kind: SACK
  out.push_back(static_cast<std::uint8_t>(2 + 8 * blocks.size()));
  for (const SackBlock& b : blocks) {
    for (const std::uint32_t v : {b.start, b.end}) {
      for (int shift = 24; shift >= 0; shift -= 8) {
        out.push_back(static_cast<std::uint8_t>(v >> shift));
      }
    }
  }
}

// The two legal ways to carry 4 SACK blocks, the most a header holds: one
// 34-byte option, or four 10-byte ones filling all 40 option bytes.
TEST(WireTest, FourSackBlocksParseAndRoundTrip) {
  Packet p = sample_packet();
  p.payload_bytes = 0;
  const SackBlocks want{{100, 200}, {300, 400}, {500, 600}, {700, 800}};
  std::vector<std::uint8_t> one_option;
  put_sack_option(one_option, {want[0], want[1], want[2], want[3]});
  one_option.push_back(1);  // NOP padding to a 4-byte boundary
  one_option.push_back(1);
  std::vector<std::uint8_t> four_options;
  for (const SackBlock& b : want) put_sack_option(four_options, {b});
  ASSERT_EQ(four_options.size(), static_cast<std::size_t>(kMaxTcpOptionBytes));

  for (const auto* options : {&one_option, &four_options}) {
    const auto parsed = wire::parse(with_raw_options(p, *options));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->packet.tcp.options.sack, want);
    const auto again = wire::parse(wire::serialize(parsed->packet));
    ASSERT_TRUE(again.has_value());
    EXPECT_TRUE(again->tcp_checksum_ok);
    EXPECT_EQ(again->packet.tcp.options, parsed->packet.tcp.options);
  }
}

// No legal header needs a 5th block, so storing one is a program bug that
// fails loudly in every build, NDEBUG included.
TEST(SackBlocksDeathTest, FifthBlockIsRejected) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  SackBlocks full{{1, 2}, {3, 4}, {5, 6}, {7, 8}};
  ASSERT_EQ(full.size(), SackBlocks::kCapacity);
  EXPECT_DEATH(full.push_back({9, 10}),
               "SACK: a header holds at most 4 blocks");
}

TEST(WireTest, PackOptionCosts12WireBytes) {
  // kind+len+8 payload = 10, padded to 12: the paper's "additional 8 bytes
  // as a TCP option" plus framing.
  TcpOptions with;
  with.acdc = AcdcFeedback{1, 2};
  TcpOptions without;
  EXPECT_EQ(with.wire_size() - without.wire_size(), 12);
}

TEST(WireTest, CorruptedBytesFailChecksum) {
  auto bytes = wire::serialize(sample_packet());
  bytes[25] ^= 0xff;  // flip a TCP header byte
  auto parsed = wire::parse(bytes);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_FALSE(parsed->tcp_checksum_ok);
  EXPECT_TRUE(parsed->ip_checksum_ok);  // IP header untouched
}

TEST(WireTest, ParseRejectsTruncated) {
  auto bytes = wire::serialize(sample_packet());
  bytes.resize(30);
  EXPECT_FALSE(wire::parse(bytes).has_value());
}

TEST(WireTest, RewriteWindowInPlaceKeepsChecksumValid) {
  auto bytes = wire::serialize(sample_packet());
  wire::rewrite_window_in_place(bytes, 77);
  auto parsed = wire::parse(bytes);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->tcp_checksum_ok) << "incremental update must hold";
  EXPECT_EQ(parsed->packet.tcp.window_raw, 77);
}

TEST(WireTest, SetEcnInPlaceKeepsIpChecksumValid) {
  auto bytes = wire::serialize(sample_packet());
  wire::set_ecn_in_place(bytes, Ecn::kCe);
  auto parsed = wire::parse(bytes);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->ip_checksum_ok);
  EXPECT_EQ(parsed->packet.ip.ecn, Ecn::kCe);
}

TEST(WireTest, ChecksumUpdateMatchesRecompute) {
  // RFC 1624 incremental update must equal a full recompute for any word.
  auto bytes = wire::serialize(sample_packet());
  for (std::uint32_t w : {0u, 1u, 0xffffu, 0x8000u, 1234u}) {
    auto copy = bytes;
    wire::rewrite_window_in_place(copy, static_cast<std::uint16_t>(w));
    auto parsed = wire::parse(copy);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_TRUE(parsed->tcp_checksum_ok) << "window=" << w;
  }
}

// Property sweep: randomized headers must round-trip bit-exactly with valid
// checksums.
class WireFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(WireFuzzTest, RandomHeadersRoundTrip) {
  std::mt19937_64 rng(
      testlib::test_seed(static_cast<std::uint64_t>(GetParam())));
  auto r32 = [&] { return static_cast<std::uint32_t>(rng()); };
  for (int i = 0; i < 200; ++i) {
    Packet p;
    p.ip.src = r32();
    p.ip.dst = r32();
    p.ip.ttl = static_cast<std::uint8_t>(rng() % 255 + 1);
    p.ip.ecn = static_cast<Ecn>(rng() % 4);
    p.ip.id = static_cast<std::uint16_t>(rng());
    p.tcp.src_port = static_cast<TcpPort>(rng());
    p.tcp.dst_port = static_cast<TcpPort>(rng());
    p.tcp.seq = r32();
    p.tcp.ack_seq = r32();
    p.tcp.flags.syn = rng() % 2;
    p.tcp.flags.ack = rng() % 2;
    p.tcp.flags.fin = rng() % 2;
    p.tcp.flags.ece = rng() % 2;
    p.tcp.flags.cwr = rng() % 2;
    p.tcp.reserved_vm_ecn = rng() % 2;
    p.tcp.window_raw = static_cast<std::uint16_t>(rng());
    p.payload_bytes = static_cast<std::int64_t>(rng() % 9000);
    // Realistic option mixes (TCP caps options at 40 bytes): either a
    // SYN-style set (MSS/wscale/sack-permitted) or a data/ACK-style set
    // (SACK blocks and/or the AC/DC feedback option).
    if (rng() % 2) {
      if (rng() % 2) p.tcp.options.mss = static_cast<std::uint16_t>(rng());
      if (rng() % 2) {
        p.tcp.options.window_scale = static_cast<std::uint8_t>(rng() % 15);
      }
      if (rng() % 2) p.tcp.options.sack_permitted = true;
    } else {
      if (rng() % 2) {
        const std::size_t n = rng() % 4;
        for (std::size_t b = 0; b < n; ++b) {
          const std::uint32_t s = r32();
          p.tcp.options.sack.push_back({s, s + 1000});
        }
      }
      if (rng() % 2) p.tcp.options.acdc = AcdcFeedback{r32(), r32()};
    }
    ASSERT_LE(p.tcp.options.wire_size(), kMaxTcpOptionBytes);

    auto parsed = wire::parse(wire::serialize(p));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_TRUE(parsed->ip_checksum_ok);
    EXPECT_TRUE(parsed->tcp_checksum_ok);
    EXPECT_EQ(parsed->packet.tcp.seq, p.tcp.seq);
    EXPECT_EQ(parsed->packet.tcp.ack_seq, p.tcp.ack_seq);
    EXPECT_EQ(parsed->packet.tcp.flags, p.tcp.flags);
    EXPECT_EQ(parsed->packet.tcp.window_raw, p.tcp.window_raw);
    EXPECT_EQ(parsed->packet.tcp.options, p.tcp.options);
    EXPECT_EQ(parsed->packet.payload_bytes, p.payload_bytes);
    EXPECT_EQ(parsed->packet.tcp.reserved_vm_ecn, p.tcp.reserved_vm_ecn);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WireFuzzTest, ::testing::Range(1, 9));

}  // namespace
}  // namespace acdc::net
