// Sequence-number wraparound coverage: the modular comparators in
// tcp/seq.h at and across the 2^32 boundary, sender-module state tracking
// through a wrap, and RWND enforcement at both window-scale extremes
// (shift 0 and the RFC 7323 maximum of 14).
#include <cstdint>
#include <limits>

#include <gtest/gtest.h>

#include "sender_module_fixture.h"
#include "sim/rng.h"
#include "tcp/seq.h"
#include "testlib/seed.h"

namespace acdc {
namespace {

using tcp::Seq;
using tcp::seq_distance;
using tcp::seq_ge;
using tcp::seq_gt;
using tcp::seq_le;
using tcp::seq_lt;
using tcp::seq_max;
using tcp::seq_min;

constexpr Seq kMax = std::numeric_limits<Seq>::max();

TEST(SeqWrap, ComparatorsAcrossTheWrapPoint) {
  // 0 is "after" kMax: the numerically tiny value wins mod 2^32.
  EXPECT_TRUE(seq_lt(kMax, 0));
  EXPECT_TRUE(seq_gt(0, kMax));
  EXPECT_TRUE(seq_le(kMax, 0));
  EXPECT_FALSE(seq_ge(kMax, 0));
  EXPECT_TRUE(seq_lt(kMax - 100, 100));
  EXPECT_EQ(seq_max(kMax - 100, 100), 100u);
  EXPECT_EQ(seq_min(kMax - 100, 100), kMax - 100);
  // Equality is symmetric everywhere, including at the boundary.
  EXPECT_TRUE(seq_le(kMax, kMax));
  EXPECT_TRUE(seq_ge(0, 0));
  EXPECT_FALSE(seq_lt(0, 0));
}

TEST(SeqWrap, DistanceWrapsModulo) {
  EXPECT_EQ(seq_distance(kMax - 15, 16), 32u);
  EXPECT_EQ(seq_distance(kMax, 0), 1u);
  EXPECT_EQ(seq_distance(0, 0), 0u);
}

TEST(SeqWrap, ComparatorPropertiesHoldForRandomOffsets) {
  sim::Rng rng(testlib::test_seed(0x5E9A11CE));
  for (int i = 0; i < 10'000; ++i) {
    const auto a = static_cast<Seq>(rng.uniform_int(0, kMax));
    // Any forward step below 2^31 keeps the ordering well-defined.
    const auto d = static_cast<std::uint32_t>(
        rng.uniform_int(1, (std::int64_t{1} << 31) - 1));
    const Seq b = a + d;
    EXPECT_TRUE(seq_lt(a, b)) << a << " +" << d;
    EXPECT_TRUE(seq_gt(b, a)) << a << " +" << d;
    EXPECT_EQ(seq_distance(a, b), d);
    EXPECT_EQ(seq_max(a, b), b);
    EXPECT_EQ(seq_min(a, b), a);
    EXPECT_TRUE(tcp::SeqLess{}(a, b));
    EXPECT_FALSE(tcp::SeqLess{}(b, a));
  }
}

// --- Sender-module behaviour across a wrap and at scale extremes ----------

using vswitch::ack_packet;
using vswitch::data_packet;

class SeqWrapSenderTest : public vswitch::SenderModuleFixture {};

TEST_F(SeqWrapSenderTest, SndNxtAndSndUnaCrossTheWrap) {
  // Segment straddles 2^32: snd_nxt lands back near zero.
  ASSERT_TRUE(egress(data_packet(kMax - 999, 3'000)));
  EXPECT_EQ(entry().snd_nxt, 2'000u);
  EXPECT_TRUE(tcp::seq_le(entry().snd_una, entry().snd_nxt));

  // Cumulative ACK past the wrap advances snd_una without confusion.
  net::Packet ack = ack_packet(2'000, 1'000);
  ASSERT_TRUE(ingress(ack));
  EXPECT_EQ(entry().snd_una, 2'000u);
  EXPECT_EQ(entry().dupacks, 0u);

  // A stale pre-wrap ACK (numerically huge) must not drag snd_una back.
  net::Packet stale = ack_packet(kMax - 500, 1'000);
  ASSERT_TRUE(ingress(stale));
  EXPECT_EQ(entry().snd_una, 2'000u);

  // Retransmission of the pre-wrap segment leaves snd_nxt alone.
  ASSERT_TRUE(egress(data_packet(kMax - 999, 1'000)));
  EXPECT_EQ(entry().snd_nxt, 2'000u);
}

TEST_F(SeqWrapSenderTest, EnforcementAtWindowScaleZero) {
  ASSERT_TRUE(egress(data_packet(1'000, 1'448)));
  entry().peer_wscale = 0;
  entry().peer_wscale_valid = true;
  entry().cwnd_bytes = 10'000;

  // Shift 0: the raw field IS the window. The ACK's 1448 acked bytes first
  // grow the virtual window (slow start), so enforcement writes 11448.
  net::Packet big = ack_packet(2'448, 65'535);
  ASSERT_TRUE(ingress(big));
  EXPECT_EQ(big.tcp.window_raw, 11'448);

  // Computed window above the 16-bit ceiling: raw 65535 advertises LESS
  // than the computed window, so the header must pass through untouched —
  // truncating 70k into uint16 would advertise a tiny window.
  entry().cwnd_bytes = 70'000;
  net::Packet ceiling = ack_packet(2'448, 65'535);
  ASSERT_TRUE(ingress(ceiling));
  EXPECT_EQ(ceiling.tcp.window_raw, 65'535);
}

TEST_F(SeqWrapSenderTest, EnforcementAtWindowScaleFourteen) {
  ASSERT_TRUE(egress(data_packet(1'000, 1'448)));
  entry().peer_wscale = 14;  // RFC 7323 maximum
  entry().peer_wscale_valid = true;
  entry().cwnd_bytes = 20'000;

  // Computed window 20000+1448 = 21448; one scale unit is 16384 bytes, so
  // the enforced raw value rounds UP to 2 (floor would strand the flow
  // below its virtual window).
  net::Packet big = ack_packet(2'448, 8);  // advertises 8 << 14
  ASSERT_TRUE(ingress(big));
  EXPECT_EQ(big.tcp.window_raw, 2);

  // Even a virtual window far below one scale unit never writes raw 0 —
  // that would freeze the connection permanently.
  entry().cwnd_bytes = 1.0;
  net::Packet tiny = ack_packet(2'448, 8);
  ASSERT_TRUE(ingress(tiny));
  EXPECT_EQ(tiny.tcp.window_raw, 1);

  // Advertised already below the computed window: untouched.
  entry().cwnd_bytes = 20'000;
  net::Packet small = ack_packet(2'448, 1);  // 1 << 14 = 16384 < 21448
  ASSERT_TRUE(ingress(small));
  EXPECT_EQ(small.tcp.window_raw, 1);
}

}  // namespace
}  // namespace acdc
