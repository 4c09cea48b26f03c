// Unit tests for AC/DC's building blocks: flow keys/table, PACK/FACK
// feedback codec, the policy engine, and the virtual congestion-control
// algorithms (Fig. 5 flowchart and Eq. 1).
#include <gtest/gtest.h>

#include "acdc/feedback.h"
#include "acdc/flow_key.h"
#include "acdc/flow_table.h"
#include "acdc/policy.h"
#include "acdc/virtual_cc.h"
#include "exp/matrix.h"

namespace acdc::vswitch {
namespace {

FlowKey key_ab() {
  return FlowKey{net::make_ip(10, 0, 0, 1), net::make_ip(10, 0, 0, 2), 40'000,
                 5000};
}

TEST(FlowKeyTest, ReverseSwapsEndpoints) {
  const FlowKey k = key_ab();
  const FlowKey r = k.reversed();
  EXPECT_EQ(r.src_ip, k.dst_ip);
  EXPECT_EQ(r.dst_port, k.src_port);
  EXPECT_EQ(r.reversed(), k);
  EXPECT_NE(FlowKeyHash{}(k), FlowKeyHash{}(r));
}

TEST(FlowKeyTest, FromPacket) {
  net::Packet p;
  p.ip.src = net::make_ip(10, 0, 0, 1);
  p.ip.dst = net::make_ip(10, 0, 0, 2);
  p.tcp.src_port = 40'000;
  p.tcp.dst_port = 5000;
  EXPECT_EQ(FlowKey::from_packet(p), key_ab());
}

TEST(FlowTableTest, CreateFindErase) {
  FlowTable table;
  EXPECT_FALSE(table.find(key_ab()));
  FlowRef e = table.find_or_create(key_ab(), 100);
  ASSERT_TRUE(e);
  EXPECT_TRUE(e.created);
  EXPECT_EQ(e.cold->created_at, 100);
  EXPECT_EQ(e.hot->last_activity, 100);
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(table.find(key_ab()).handle, e.handle);
  // Same key -> same record, not re-created.
  FlowRef again = table.find_or_create(key_ab(), 200);
  EXPECT_EQ(again.handle, e.handle);
  EXPECT_FALSE(again.created);
  EXPECT_EQ(table.size(), 1u);
  EXPECT_TRUE(table.erase(key_ab()));
  EXPECT_FALSE(table.erase(key_ab()));
  EXPECT_EQ(table.size(), 0u);
}

TEST(FlowTableTest, StatsCountLookups) {
  FlowTable table;
  table.find_or_create(key_ab(), 0);
  table.find(key_ab());
  table.find(key_ab().reversed());
  EXPECT_EQ(table.stats().inserts, 1);
  EXPECT_EQ(table.stats().lookups, 3);
  EXPECT_EQ(table.stats().hits, 1);
}

TEST(FlowTableTest, HandleGenerationsTrackMembership) {
  FlowTable table;
  // A default handle is invalid and never derefs (gen 0 can't match).
  EXPECT_FALSE(FlowHandle{}.valid());
  EXPECT_FALSE(table.deref(FlowHandle{}));

  const FlowHandle h1 = table.find_or_create(key_ab(), 0).handle;
  EXPECT_TRUE(h1.valid());
  // Pure lookups return the same generation.
  EXPECT_EQ(table.find(key_ab()).handle, h1);
  EXPECT_EQ(table.find_or_create(key_ab(), 5).handle, h1);
  EXPECT_TRUE(table.deref(h1));
  table.erase(key_ab());
  EXPECT_FALSE(table.deref(h1));
  // Re-creation mints a fresh generation; the old handle stays dead.
  const FlowHandle h2 = table.find_or_create(key_ab(), 9).handle;
  EXPECT_NE(h2.gen, h1.gen);
  EXPECT_FALSE(table.deref(h1));
  EXPECT_TRUE(table.deref(h2));
}

TEST(FlowTableTest, GarbageCollectsIdleAndFin) {
  FlowTable table;
  FlowRef idle = table.find_or_create(key_ab(), 0);
  idle.hot->last_activity = 0;
  FlowKey k2 = key_ab();
  k2.src_port = 40'001;
  FlowRef finished = table.find_or_create(k2, 0);
  finished.hot->fin_seen = true;
  finished.hot->last_activity = sim::seconds(5);
  FlowKey k3 = key_ab();
  k3.src_port = 40'002;
  FlowRef live = table.find_or_create(k3, 0);
  live.hot->last_activity = sim::seconds(15);

  // At t=10s with 60s idle timeout and 1s FIN linger: only `finished` goes.
  EXPECT_EQ(table.collect_garbage(sim::seconds(10), sim::seconds(60),
                                  sim::seconds(1)),
            1u);
  EXPECT_EQ(table.size(), 2u);
  // At t=70s, `idle` exceeds the idle timeout.
  EXPECT_EQ(table.collect_garbage(sim::seconds(70), sim::seconds(60),
                                  sim::seconds(1)),
            1u);
  EXPECT_TRUE(table.find(k3));
}

TEST(FeedbackTest, AttachPackFitsAndStrips) {
  net::Packet ack;
  ack.tcp.flags.ack = true;
  EXPECT_TRUE(attach_pack(ack, 1000, 200, 9000));
  ASSERT_TRUE(ack.tcp.options.acdc.has_value());
  auto fb = consume_feedback(ack);
  ASSERT_TRUE(fb.has_value());
  EXPECT_EQ(fb->total_bytes, 1000u);
  EXPECT_EQ(fb->marked_bytes, 200u);
  EXPECT_FALSE(ack.tcp.options.acdc.has_value());
  EXPECT_FALSE(consume_feedback(ack).has_value());
}

TEST(FeedbackTest, AttachPackRespectsMtu) {
  net::Packet ack;
  ack.tcp.flags.ack = true;
  ack.payload_bytes = 8960;  // piggybacked data fills the 9K MTU
  EXPECT_FALSE(attach_pack(ack, 1, 1, 9000));
  EXPECT_FALSE(ack.tcp.options.acdc.has_value());
}

TEST(FeedbackTest, FackIsConsumablePureAck) {
  net::Packet ack;
  ack.ip.src = net::make_ip(10, 0, 0, 2);
  ack.ip.dst = net::make_ip(10, 0, 0, 1);
  ack.tcp.src_port = 5000;
  ack.tcp.dst_port = 40'000;
  ack.tcp.ack_seq = 777;
  ack.tcp.flags.ack = true;
  ack.payload_bytes = 8960;
  auto fack = make_fack(ack, 5000, 1000);
  EXPECT_TRUE(fack->acdc_fack);
  EXPECT_EQ(fack->payload_bytes, 0);
  EXPECT_EQ(fack->tcp.ack_seq, 777u);
  EXPECT_EQ(fack->ip.src, ack.ip.src);
  auto fb = consume_feedback(*fack);
  ASSERT_TRUE(fb.has_value());
  EXPECT_EQ(fb->total_bytes, 5000u);
}

TEST(PolicyEngineTest, DefaultAndRules) {
  PolicyEngine engine;
  FlowPolicy def;
  def.kind = VccKind::kDctcp;
  engine.set_default(def);

  FlowPolicy wan;
  wan.kind = VccKind::kCubic;
  engine.add_dst_subnet_rule(net::make_ip(192, 168, 0, 0),
                             net::make_ip(255, 255, 0, 0), wan);
  FlowPolicy capped;
  capped.max_rwnd_bytes = 100'000;
  engine.add_dst_port_rule(9999, capped);

  EXPECT_EQ(engine.lookup(key_ab()).kind, VccKind::kDctcp);
  FlowKey to_wan = key_ab();
  to_wan.dst_ip = net::make_ip(192, 168, 7, 7);
  EXPECT_EQ(engine.lookup(to_wan).kind, VccKind::kCubic);
  FlowKey to_port = key_ab();
  to_port.dst_port = 9999;
  EXPECT_EQ(engine.lookup(to_port).max_rwnd_bytes, 100'000);
  EXPECT_EQ(engine.rule_count(), 2u);
}

// ---------------------------------------------------------------------------
// Virtual DCTCP (Fig. 5 + Eq. 1)

class VirtualDctcpTest : public ::testing::Test {
 protected:
  VirtualDctcpTest() {
    state_.mss = 9000 - 40;
    state_.snd_una = 1000;
    state_.seq_valid = true;
    cc().init(state_);
    state_.snd_nxt = state_.snd_una + 10 * state_.mss;  // a window in flight
  }

  const VirtualCc& cc() { return virtual_cc_for(VccKind::kDctcp); }

  // Simulates one ACK advancing the flow with a full window still in
  // flight behind it.
  void ack(std::int64_t bytes, bool marked) {
    state_.snd_una += static_cast<std::uint32_t>(bytes);
    state_.snd_nxt = state_.snd_una + 10 * state_.mss;
    VccEvent ev;
    ev.acked_bytes = bytes;
    ev.fb_total_delta = bytes;
    ev.fb_marked_delta = marked ? bytes : 0;
    cc().on_ack(state_, cfg_, ev);
  }
  void clean_ack(std::int64_t bytes) { ack(bytes, false); }
  void marked_ack(std::int64_t bytes) { ack(bytes, true); }

  FlowHot state_;
  VccConfig cfg_;
};

TEST_F(VirtualDctcpTest, InitialWindowIsTenPackets) {
  EXPECT_DOUBLE_EQ(state_.cwnd_bytes, 10.0 * state_.mss);
}

TEST_F(VirtualDctcpTest, SlowStartGrowsByAckedBytes) {
  const double before = state_.cwnd_bytes;
  clean_ack(state_.mss);
  EXPECT_DOUBLE_EQ(state_.cwnd_bytes, before + state_.mss);
}

TEST_F(VirtualDctcpTest, MarkedAckCutsOncePerWindow) {
  const double before = state_.cwnd_bytes;
  marked_ack(state_.mss);
  // alpha starts at 1.0 -> cut to half (Eq. 1 with beta=1).
  EXPECT_NEAR(state_.cwnd_bytes, before * 0.5, 1.0);
  const double after_first = state_.cwnd_bytes;
  // More marks inside the same window: no further cut (growth continues,
  // mirroring the host stack's tcp_cong_avoid on every ACK).
  marked_ack(state_.mss);
  EXPECT_GE(state_.cwnd_bytes, after_first);
  EXPECT_LT(state_.cwnd_bytes, after_first + 2 * state_.mss);
}

TEST_F(VirtualDctcpTest, CutResumesInNextWindow) {
  marked_ack(state_.mss);
  const double after_first = state_.cwnd_bytes;
  // Advance snd_una past the recorded window end -> new window -> new cut.
  clean_ack(10 * state_.mss);
  marked_ack(state_.mss);
  EXPECT_LT(state_.cwnd_bytes, after_first);
}

TEST_F(VirtualDctcpTest, AlphaDecaysWithoutCongestion) {
  // Several windows with no marks: alpha decays geometrically from 1.
  for (int w = 0; w < 20; ++w) clean_ack(10 * state_.mss);
  EXPECT_LT(state_.alpha, 0.4);
  EXPECT_GT(state_.alpha, 0.0);
}

TEST_F(VirtualDctcpTest, AlphaStaysHighUnderFullMarking) {
  for (int w = 0; w < 20; ++w) marked_ack(10 * state_.mss);
  EXPECT_GT(state_.alpha, 0.9);
}

TEST_F(VirtualDctcpTest, LossSetsAlphaMaxAndCuts) {
  // Grow a bit first.
  for (int i = 0; i < 5; ++i) clean_ack(state_.mss);
  const double before = state_.cwnd_bytes;
  VccEvent ev;
  ev.dupack = true;
  ev.dupacks = 3;
  cc().on_ack(state_, cfg_, ev);
  EXPECT_DOUBLE_EQ(state_.alpha, 1.0);
  EXPECT_NEAR(state_.cwnd_bytes, before * 0.5, 1.0);
}

TEST_F(VirtualDctcpTest, FewerThanThreeDupacksDoNothing) {
  const double before = state_.cwnd_bytes;
  VccEvent ev;
  ev.dupack = true;
  ev.dupacks = 2;
  cc().on_ack(state_, cfg_, ev);
  EXPECT_DOUBLE_EQ(state_.cwnd_bytes, before);
}

TEST_F(VirtualDctcpTest, TimeoutCollapsesToOneMss) {
  cc().on_timeout(state_, cfg_);
  EXPECT_DOUBLE_EQ(state_.cwnd_bytes, static_cast<double>(state_.mss));
  EXPECT_DOUBLE_EQ(state_.alpha, 1.0);
}

TEST_F(VirtualDctcpTest, WindowNeverBelowOneMss) {
  state_.beta = 0.0;  // most aggressive backoff
  for (int i = 0; i < 10; ++i) marked_ack(10 * state_.mss);
  EXPECT_GE(state_.cwnd_bytes, static_cast<double>(state_.mss));
}

TEST(VirtualDctcpEq1Test, ReductionFactor) {
  // beta=1 -> 1 - alpha/2 (plain DCTCP).
  EXPECT_DOUBLE_EQ(VirtualDctcp::reduction_factor(1.0, 1.0), 0.5);
  EXPECT_DOUBLE_EQ(VirtualDctcp::reduction_factor(0.5, 1.0), 0.75);
  // beta=0 -> 1 - alpha (aggressive).
  EXPECT_DOUBLE_EQ(VirtualDctcp::reduction_factor(1.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(VirtualDctcp::reduction_factor(0.5, 0.0), 0.5);
  // Monotonic in beta: higher priority -> milder cut.
  EXPECT_GT(VirtualDctcp::reduction_factor(0.8, 0.75),
            VirtualDctcp::reduction_factor(0.8, 0.25));
}

TEST(VirtualRenoTest, HalvesOnCongestion) {
  FlowHot s;
  s.mss = 1448;
  VccConfig cfg;
  const VirtualCc& reno = virtual_cc_for(VccKind::kReno);
  reno.init(s);
  const double before = s.cwnd_bytes;
  VccEvent ev;
  ev.fb_marked_delta = 100;
  reno.on_ack(s, cfg, ev);
  EXPECT_NEAR(s.cwnd_bytes, before / 2, 1.0);
}

TEST(VirtualCubicTest, GrowsTowardOriginAfterCut) {
  FlowHot s;
  s.mss = 1448;
  VccConfig cfg;
  const VirtualCc& cubic = virtual_cc_for(VccKind::kCubic);
  cubic.init(s);
  s.ssthresh_bytes = 0;  // force congestion avoidance
  VccEvent ev;
  ev.acked_bytes = s.mss;
  ev.now = sim::milliseconds(1);
  const double start = s.cwnd_bytes;
  for (int i = 0; i < 100; ++i) {
    ev.now += sim::milliseconds(1);
    cubic.on_ack(s, cfg, ev);
  }
  EXPECT_GT(s.cwnd_bytes, start);
  // A congestion event cuts by the CUBIC beta (0.7).
  const double before = s.cwnd_bytes;
  VccEvent mark;
  mark.fb_marked_delta = 1;
  mark.now = ev.now;
  cubic.on_ack(s, cfg, mark);
  EXPECT_NEAR(s.cwnd_bytes, before * 0.7, before * 0.02);
}

TEST(VirtualCcRegistryTest, KindNames) {
  // Every kind's name parses back to it at the CLI edge (acdc_matrix --ccs).
  for (VccKind kind : {VccKind::kDctcp, VccKind::kReno, VccKind::kCubic,
                       VccKind::kPowerTcp, VccKind::kFairRate}) {
    EXPECT_EQ(exp::vcc_from_string(to_string(kind)), kind) << to_string(kind);
  }
  EXPECT_STREQ(to_string(VccKind::kDctcp), "dctcp");
}

}  // namespace
}  // namespace acdc::vswitch
