// Direct unit tests of the AC/DC sender/receiver modules with hand-crafted
// packets (no hosts, no network): §3.1 state reconstruction, handshake
// learning (MSS/wscale/NS bit), PACK accounting and deltas, enforcement
// arithmetic (scaling, rounding, only-lower), policing window math, and
// mid-flow adoption defaults.
#include <gtest/gtest.h>

#include "acdc/receiver_module.h"
#include "sender_module_fixture.h"
#include "sim/simulator.h"

namespace acdc::vswitch {
namespace {

class SenderModuleTest : public SenderModuleFixture {};

TEST_F(SenderModuleTest, EgressSynLearnsMssAndSetsNsBit) {
  net::Packet syn = data_packet(100, 0);
  syn.tcp.flags = net::TcpFlags{};
  syn.tcp.flags.syn = true;
  syn.tcp.flags.ece = true;
  syn.tcp.flags.cwr = true;
  syn.tcp.options.mss = 8960;
  ASSERT_TRUE(sender_.process_egress(syn));
  EXPECT_TRUE(syn.tcp.reserved_vm_ecn) << "NS bit carries VM's ECN intent";
  EXPECT_EQ(entry().mss, 8960u);
  EXPECT_TRUE(entry().vm_requested_ecn);
  // Initial window: 10 packets of the learned MSS (§3.1).
  EXPECT_DOUBLE_EQ(entry().cwnd_bytes, 10.0 * 8960);
  // SYN consumes one sequence number.
  EXPECT_EQ(entry().snd_nxt, 101u);
}

TEST_F(SenderModuleTest, TracksSndNxtMonotonically) {
  net::Packet a = data_packet(1000, 500);
  net::Packet b = data_packet(1500, 500);
  ASSERT_TRUE(sender_.process_egress(a));
  ASSERT_TRUE(sender_.process_egress(b));
  EXPECT_EQ(entry().snd_nxt, 2000u);
  // A retransmission must not move snd_nxt backwards.
  net::Packet retx = data_packet(1000, 500);
  ASSERT_TRUE(sender_.process_egress(retx));
  EXPECT_EQ(entry().snd_nxt, 2000u);
  EXPECT_EQ(entry().snd_una, 1000u);
}

TEST_F(SenderModuleTest, IngressSynAckLearnsPeerWscale) {
  net::Packet syn = data_packet(100, 0);
  syn.tcp.flags = net::TcpFlags{};
  syn.tcp.flags.syn = true;
  ASSERT_TRUE(sender_.process_egress(syn));
  net::Packet synack = ack_packet(101, 65535);
  synack.tcp.flags.syn = true;
  synack.tcp.options.window_scale = 9;
  synack.tcp.options.mss = 1460;
  ASSERT_TRUE(sender_.process_ingress_ack(synack));
  EXPECT_TRUE(entry().peer_wscale_valid);
  EXPECT_EQ(entry().peer_wscale, 9);
  EXPECT_EQ(entry().mss, 1460u) << "MSS is the minimum of both sides";
}

TEST_F(SenderModuleTest, AckAdvancesAndCountsDupacks) {
  ASSERT_TRUE(egress(data_packet(1000, 3000)));
  net::Packet ack1 = ack_packet(2000, 1000);
  ASSERT_TRUE(sender_.process_ingress_ack(ack1));
  EXPECT_EQ(entry().snd_una, 2000u);
  EXPECT_EQ(entry().dupacks, 0u);
  // Three identical pure ACKs: dupACK counter rises.
  for (int i = 0; i < 3; ++i) {
    net::Packet dup = ack_packet(2000, 1000);
    ASSERT_TRUE(sender_.process_ingress_ack(dup));
  }
  EXPECT_EQ(entry().dupacks, 3u);
  // A fresh advance resets it.
  net::Packet ack2 = ack_packet(4000, 1000);
  ASSERT_TRUE(sender_.process_ingress_ack(ack2));
  EXPECT_EQ(entry().dupacks, 0u);
}

TEST_F(SenderModuleTest, EnforcementOnlyLowersAndRoundsUp) {
  ASSERT_TRUE(egress(data_packet(1000, 1448)));
  entry().peer_wscale = 9;
  entry().peer_wscale_valid = true;
  entry().cwnd_bytes = 20'000;

  // Advertised (60 << 9 = 30720) above the computed window: lowered. The
  // ACK itself first grows the virtual window by its 1448 acked bytes
  // (slow start), so the enforced raw value is ceil((20000+1448)/512) = 42.
  net::Packet big = ack_packet(2448, 60);
  ASSERT_TRUE(sender_.process_ingress_ack(big));
  EXPECT_EQ(big.tcp.window_raw, 42);

  // Advertised below the computed window: untouched (§3.3 "only when it is
  // smaller than the packet's original RWND").
  net::Packet small = ack_packet(2448, 10);  // 10 << 9 = 5120 < 20000
  ASSERT_TRUE(sender_.process_ingress_ack(small));
  EXPECT_EQ(small.tcp.window_raw, 10);
}

TEST_F(SenderModuleTest, FeedbackDeltasDriveVirtualDctcp) {
  ASSERT_TRUE(egress(data_packet(1000, 10'000)));
  const double w0 = entry().cwnd_bytes;
  // Clean feedback: growth.
  net::Packet a1 = ack_packet(3000, 60'000);
  a1.tcp.options.acdc = net::AcdcFeedback{2'000, 0};
  ASSERT_TRUE(sender_.process_ingress_ack(a1));
  EXPECT_GT(entry().cwnd_bytes, w0);
  EXPECT_FALSE(a1.tcp.options.acdc.has_value()) << "PACK stripped";
  // Marked feedback: cut.
  const double w1 = entry().cwnd_bytes;
  net::Packet a2 = ack_packet(5000, 60'000);
  a2.tcp.options.acdc = net::AcdcFeedback{4'000, 2'000};
  ASSERT_TRUE(sender_.process_ingress_ack(a2));
  EXPECT_LT(entry().cwnd_bytes, w1);
  EXPECT_EQ(entry().fb_total, 4'000u);
  EXPECT_EQ(entry().fb_marked, 2'000u);
}

TEST_F(SenderModuleTest, FeedbackBaselineResyncClampsMarkedDelta) {
  // The receiver's running totals restart when its vSwitch evicts the flow
  // entry under cap pressure (§4). Until the new incarnation's totals pass
  // our recorded baseline the serial test calls them stale; the first
  // accepted feedback afterwards straddles the restart, so the marked delta
  // can exceed the total delta. Unclamped, that inconsistency accumulates
  // into the DCTCP window counters and drives alpha above 1.
  ASSERT_TRUE(egress(data_packet(1000, 50'000)));
  net::Packet a1 = ack_packet(11'000, 60'000);
  a1.tcp.options.acdc = net::AcdcFeedback{10'000, 0};  // clean baseline
  ASSERT_TRUE(sender_.process_ingress_ack(a1));
  // Receiver entry evicted + recreated; its totals restarted from zero and
  // have just overtaken the old baseline, with every new byte CE-marked.
  net::Packet a2 = ack_packet(21'200, 60'000);
  a2.tcp.options.acdc = net::AcdcFeedback{10'200, 10'200};
  ASSERT_TRUE(sender_.process_ingress_ack(a2));
  EXPECT_EQ(core_.stats.feedback_resyncs, 1);
  EXPECT_EQ(entry().fb_total, 10'200u) << "baseline adopts the new totals";
  EXPECT_EQ(entry().fb_marked, 10'200u);
  EXPECT_LE(entry().win_marked, entry().win_total)
      << "window accumulators must stay consistent";
  // Keep acking fully-marked coherent feedback: alpha converges toward 1
  // but must never cross it.
  std::uint32_t total = 10'200;
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(egress(data_packet(21'200 + 1'448 * i, 1'448)));
    total += 1'448;
    net::Packet a = ack_packet(22'648 + 1'448 * i, 60'000);
    a.tcp.options.acdc = net::AcdcFeedback{total, total};
    ASSERT_TRUE(sender_.process_ingress_ack(a));
    ASSERT_GE(entry().alpha, 0.0);
    ASSERT_LE(entry().alpha, 1.0);
  }
}

TEST_F(SenderModuleTest, FackConsumedAndNeverForwarded) {
  ASSERT_TRUE(egress(data_packet(1000, 1448)));
  net::Packet fack = ack_packet(2448, 60'000);
  fack.acdc_fack = true;
  fack.tcp.options.acdc = net::AcdcFeedback{1'448, 0};
  EXPECT_FALSE(sender_.process_ingress_ack(fack));
  EXPECT_EQ(core_.stats.facks_consumed, 1);
  EXPECT_EQ(entry().snd_una, 2448u) << "state still updated";
}

TEST_F(SenderModuleTest, HidesEcnEcho) {
  ASSERT_TRUE(egress(data_packet(1000, 1448)));
  net::Packet ack = ack_packet(2448, 60'000);
  ack.tcp.flags.ece = true;
  ASSERT_TRUE(sender_.process_ingress_ack(ack));
  EXPECT_FALSE(ack.tcp.flags.ece) << "VM must not see ECN feedback (§3.3)";
}

TEST_F(SenderModuleTest, MidFlowAdoptionBootstrapsFromAck) {
  // No SYN ever seen: the first ACK primes snd_una (§3.1's defaults).
  net::Packet ack = ack_packet(50'000, 1000);
  ASSERT_TRUE(sender_.process_ingress_ack(ack));
  EXPECT_TRUE(entry().seq_valid);
  EXPECT_EQ(entry().snd_una, 50'000u);
  EXPECT_EQ(entry().mss, 1460u) << "default MSS when no SYN observed";
}

TEST_F(SenderModuleTest, PolicingAllowsRetransmissionsAlways) {
  FlowPolicy police;
  police.police = true;
  core_.policy.set_default(police);
  ASSERT_TRUE(egress(data_packet(1000, 1448)));
  entry().cwnd_bytes = 1448;  // tiny window
  // Retransmission of already-admitted bytes passes.
  net::Packet retx = data_packet(1000, 1448);
  EXPECT_TRUE(sender_.process_egress(retx));
  // Far beyond the window: dropped.
  net::Packet rogue = data_packet(1'000'000, 1448);
  EXPECT_FALSE(sender_.process_egress(rogue));
  EXPECT_EQ(core_.stats.policed_drops, 1);
}

TEST_F(SenderModuleTest, InactivityScanFiresOncePerStall) {
  ASSERT_TRUE(egress(data_packet(1000, 10'000)));
  entry().cwnd_bytes = 500'000;
  // No ACKs arrive; jump past the inactivity timeout.
  sim_.run_until(core_.config.inactivity_timeout + sim::milliseconds(1));
  EXPECT_EQ(sender_.infer_timeouts(sim_.now()), 1);
  EXPECT_DOUBLE_EQ(entry().cwnd_bytes,
                   static_cast<double>(entry().mss));
  // Same stall: no second firing.
  EXPECT_EQ(sender_.infer_timeouts(sim_.now() + sim::milliseconds(50)), 0);
}

// ---------------------------------------------------------------------------

class ReceiverModuleTest : public ::testing::Test {
 protected:
  ReceiverModuleTest() : receiver_(core_) { core_.sim = &sim_; }

  sim::Simulator sim_;
  AcdcCore core_;
  ReceiverModule receiver_{core_};
};

TEST_F(ReceiverModuleTest, CountsTotalsAndStripsCe) {
  net::Packet d1 = data_packet(1000, 1000);
  d1.ip.ecn = net::Ecn::kEct0;
  receiver_.process_ingress_data(d1);
  net::Packet d2 = data_packet(2000, 500);
  d2.ip.ecn = net::Ecn::kCe;
  receiver_.process_ingress_data(d2);

  FlowRef e = core_.table.find(data_key());
  ASSERT_TRUE(e);
  EXPECT_EQ(e.hot->rcv_total_bytes, 1500u);
  EXPECT_EQ(e.hot->rcv_marked_bytes, 500u);
  // Non-ECN VM: all ECN bits cleared before delivery.
  EXPECT_EQ(d1.ip.ecn, net::Ecn::kNotEct);
  EXPECT_EQ(d2.ip.ecn, net::Ecn::kNotEct);
}

TEST_F(ReceiverModuleTest, EcnCapableVmSeesEctButNeverCe) {
  net::Packet syn = data_packet(100, 0);
  syn.tcp.flags = net::TcpFlags{};
  syn.tcp.flags.syn = true;
  syn.tcp.reserved_vm_ecn = true;  // remote VM negotiated ECN
  receiver_.process_ingress_data(syn);
  EXPECT_FALSE(syn.tcp.reserved_vm_ecn) << "NS bit hidden from the VM";
  // Local VM accepts via its SYN-ACK.
  net::Packet synack = ack_packet(101, 65535);
  synack.tcp.flags.syn = true;
  synack.tcp.flags.ece = true;
  receiver_.process_egress_ack(synack, [](net::PacketPtr) { FAIL(); });

  net::Packet ce = data_packet(101, 1000);
  ce.ip.ecn = net::Ecn::kCe;
  receiver_.process_ingress_data(ce);
  EXPECT_EQ(ce.ip.ecn, net::Ecn::kEct0)
      << "CE converted to ECT(0) for an ECN-capable VM (§3.2)";
}

TEST_F(ReceiverModuleTest, AttachesPackWithRunningTotals) {
  net::Packet d = data_packet(1000, 2000);
  d.ip.ecn = net::Ecn::kCe;
  receiver_.process_ingress_data(d);

  net::Packet ack = ack_packet(3000, 500);
  receiver_.process_egress_ack(ack, [](net::PacketPtr) { FAIL(); });
  ASSERT_TRUE(ack.tcp.options.acdc.has_value());
  EXPECT_EQ(ack.tcp.options.acdc->total_bytes, 2000u);
  EXPECT_EQ(ack.tcp.options.acdc->marked_bytes, 2000u);
  EXPECT_EQ(core_.stats.packs_attached, 1);
}

TEST_F(ReceiverModuleTest, EmitsFackWhenAckCarriesFullPayload) {
  core_.config.mtu_bytes = 1500;
  net::Packet d = data_packet(1000, 1000);
  receiver_.process_ingress_data(d);

  net::Packet ack = ack_packet(2000, 500);
  ack.payload_bytes = 1460;  // piggybacked data fills the MTU
  net::PacketPtr emitted;
  receiver_.process_egress_ack(
      ack, [&](net::PacketPtr f) { emitted = std::move(f); });
  EXPECT_FALSE(ack.tcp.options.acdc.has_value());
  ASSERT_NE(emitted, nullptr);
  EXPECT_TRUE(emitted->acdc_fack);
  EXPECT_EQ(emitted->tcp.options.acdc->total_bytes, 1000u);
  EXPECT_EQ(core_.stats.facks_sent, 1);
}

TEST_F(ReceiverModuleTest, NoFeedbackForUnknownFlow) {
  net::Packet ack = ack_packet(1, 100);
  receiver_.process_egress_ack(ack, [](net::PacketPtr) { FAIL(); });
  EXPECT_FALSE(ack.tcp.options.acdc.has_value());
}

}  // namespace
}  // namespace acdc::vswitch
