// Property tests for the virtual-CC arsenal (DESIGN.md §13): PowerTCP's
// window stays inside [1 MSS, cap·BDP] under adversarial telemetry
// sequences (zero rates, wrapping timestamps, saturated queue depths), the
// switch-side fair-share arithmetic never allocates past port capacity, the
// fair-rate window conversion is exact, and full arsenal-enabled scenarios
// uphold the RWND-only-lowered / no-telemetry-leak invariants end to end.
// Seed-swept via ACDC_TEST_SEED.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include <gtest/gtest.h>

#include "acdc/flow_state.h"
#include "acdc/policy.h"
#include "acdc/virtual_cc.h"
#include "net/packet.h"
#include "net/telemetry.h"
#include "sim/rng.h"
#include "testlib/scenario_gen.h"
#include "testlib/seed.h"

namespace acdc::vswitch {
namespace {

FlowHot make_state(VccKind kind, std::uint32_t mss = 1448) {
  FlowHot s;
  s.mss = mss;
  s.snd_una = 1'000;
  s.snd_nxt = 1'000;
  s.seq_valid = true;
  virtual_cc_for(kind).init(s);
  return s;
}

VccEvent telemetry_ack(std::uint32_t qlen, std::uint32_t tx, std::uint32_t ts,
                       std::int64_t acked = 1448) {
  VccEvent ev;
  ev.acked_bytes = acked;
  ev.fb_total_delta = acked;
  ev.telemetry = true;
  ev.qlen_bytes = qlen;
  ev.tx_bytes_per_ms = tx;
  ev.fair_bytes_per_ms = std::max<std::uint32_t>(1, tx);
  ev.ts_us = ts;
  return ev;
}

TEST(PowerTcpProperty, WindowStaysWithinBoundsUnderAdversarialTelemetry) {
  const VccConfig cfg;
  const VirtualCc& cc = virtual_cc_for(VccKind::kPowerTcp);
  sim::Rng rng(testlib::test_seed(0x50E4ACD1));
  for (int flow = 0; flow < 50; ++flow) {
    FlowHot s = make_state(VccKind::kPowerTcp);
    std::uint32_t ts = static_cast<std::uint32_t>(
        rng.uniform_int(0, std::numeric_limits<std::uint32_t>::max()));
    for (int i = 0; i < 400; ++i) {
      // Adversarial stamps: saturated queues, zero/huge rates, timestamps
      // that stall, jump, or wrap through 2^32.
      const std::uint32_t qlen = static_cast<std::uint32_t>(rng.uniform_int(
          0, std::numeric_limits<std::uint32_t>::max()));
      const std::uint32_t tx = rng.chance(0.1)
                                   ? 0
                                   : static_cast<std::uint32_t>(rng.uniform_int(
                                         0, std::numeric_limits<
                                                std::uint32_t>::max()));
      ts += static_cast<std::uint32_t>(rng.uniform_int(0, 1 << 20));
      VccEvent ev = telemetry_ack(qlen, tx, ts);
      s.snd_una += ev.acked_bytes;
      s.snd_nxt = s.snd_una;
      cc.on_ack(s, cfg, ev);

      ASSERT_TRUE(std::isfinite(s.cwnd_bytes));
      const double bdp = VirtualPowerTcp::bdp_bytes(cfg.base_rtt_us, tx);
      const double cap = std::max(static_cast<double>(s.mss),
                                  VirtualPowerTcp::kCapBdps * bdp);
      EXPECT_GE(s.cwnd_bytes, static_cast<double>(s.mss));
      EXPECT_LE(s.cwnd_bytes, cap)
          << "flow " << flow << " step " << i << " qlen " << qlen << " tx "
          << tx;
    }
  }
}

TEST(PowerTcpProperty, EmptyQueueGrowsAndSaturatedQueueShrinks) {
  const VccConfig cfg;
  const VirtualCc& cc = virtual_cc_for(VccKind::kPowerTcp);
  // Line-rate 10G stamps: tx = 1.25e6 bytes/ms, BDP = tx · τ.
  const std::uint32_t tx = 1'250'000;
  const double bdp = VirtualPowerTcp::bdp_bytes(cfg.base_rtt_us, tx);

  FlowHot idle = make_state(VccKind::kPowerTcp);
  std::uint32_t ts = 100;
  for (int i = 0; i < 2'000; ++i) {
    ts += 10;
    VccEvent ev = telemetry_ack(0, tx, ts);
    idle.snd_una += ev.acked_bytes;
    idle.snd_nxt = idle.snd_una;
    cc.on_ack(idle, cfg, ev);
  }
  // Γ = 1 on an empty queue: the window must climb to the cap.
  EXPECT_NEAR(idle.cwnd_bytes, VirtualPowerTcp::kCapBdps * bdp,
              static_cast<double>(idle.mss));

  FlowHot jammed = make_state(VccKind::kPowerTcp);
  ts = 100;
  for (int i = 0; i < 2'000; ++i) {
    ts += 10;
    VccEvent ev = telemetry_ack(50 * 1'000'000, tx, ts);
    jammed.snd_una += ev.acked_bytes;
    jammed.snd_nxt = jammed.snd_una;
    cc.on_ack(jammed, cfg, ev);
  }
  // A 50MB standing queue: Γ >> 1, the window must fall to ~the floor.
  EXPECT_LE(jammed.cwnd_bytes, 2.0 * jammed.mss);
}

TEST(PowerTcpProperty, TimeoutResetsGradientBaseline) {
  const VccConfig cfg;
  const VirtualCc& cc = virtual_cc_for(VccKind::kPowerTcp);
  FlowHot s = make_state(VccKind::kPowerTcp);
  VccEvent ev = telemetry_ack(1'000, 1'250'000, 500);
  s.snd_una += ev.acked_bytes;
  cc.on_ack(s, cfg, ev);
  ASSERT_TRUE(s.cc.pt.prev_valid);
  cc.on_timeout(s, cfg);
  EXPECT_FALSE(s.cc.pt.prev_valid);
  EXPECT_GE(s.cwnd_bytes, static_cast<double>(s.mss));
}

TEST(FairRateProperty, WindowMatchesFairShareConversion) {
  VccConfig cfg;
  cfg.base_rtt_us = 40.0;
  // 100 bytes/µs fair share · 40µs = 4000 bytes, widened by the margin.
  const double window = 4'000.0 * VirtualFairRate::kWindowRtts;
  EXPECT_DOUBLE_EQ(VirtualFairRate::window_bytes(40.0, 100'000), window);

  const VirtualCc& cc = virtual_cc_for(VccKind::kFairRate);
  FlowHot s = make_state(VccKind::kFairRate);
  VccEvent ev = telemetry_ack(0, 1'250'000, 100);
  ev.fair_bytes_per_ms = 100'000;
  s.snd_una += ev.acked_bytes;
  cc.on_ack(s, cfg, ev);
  EXPECT_DOUBLE_EQ(s.cwnd_bytes, window);

  // A fair share below one MSS still floors at one MSS.
  ev.fair_bytes_per_ms = 1;
  cc.on_ack(s, cfg, ev);
  EXPECT_DOUBLE_EQ(s.cwnd_bytes, static_cast<double>(s.mss));

  // Telemetry-blind ACKs fall back to growth, never collapse.
  const double before = s.cwnd_bytes;
  VccEvent blind;
  blind.acked_bytes = 1448;
  cc.on_ack(s, cfg, blind);
  EXPECT_GE(s.cwnd_bytes, before);
}

TEST(TelemetrySamplerProperty, FairSharesNeverOversubscribeThePort) {
  sim::Rng rng(testlib::test_seed(0x50E4ACD2));
  for (int trial = 0; trial < 40; ++trial) {
    net::TelemetrySampler sampler(sim::gigabits_per_second(10));
    const int flows = static_cast<int>(rng.uniform_int(1, 64));
    sim::Time now = sim::microseconds(rng.uniform_int(0, 1'000'000));
    for (int i = 0; i < flows; ++i) {
      net::Packet p;
      p.ip.src = net::make_ip(10, 0, 0, static_cast<std::uint8_t>(i + 1));
      p.ip.dst = net::make_ip(10, 0, 1, 1);
      p.tcp.src_port = static_cast<net::TcpPort>(1000 + i);
      p.tcp.dst_port = 80;
      p.payload_bytes = 1000;
      now += sim::microseconds(rng.uniform_int(0, 20));
      sampler.stamp(p, rng.uniform_int(0, 1 << 20), now);
      ASSERT_TRUE(p.telem.has_value());
      EXPECT_EQ(p.telem->fair_bytes_per_ms,
                sampler.fair_share_bytes_per_ms());
    }
    // The invariant: fair · active ≤ line rate (+1 rounding floor per flow).
    const std::int64_t line = sampler.line_rate_bytes_per_ms();
    const std::int64_t active = sampler.active_flows();
    EXPECT_LE(active, flows);
    EXPECT_LE(static_cast<std::int64_t>(sampler.fair_share_bytes_per_ms()) *
                  active,
              std::max(line, active));
  }
}

TEST(TelemetrySamplerProperty, IdleEpochsForgetOldFlows) {
  net::TelemetrySampler sampler(sim::gigabits_per_second(10));
  net::Packet p;
  p.ip.src = net::make_ip(10, 0, 0, 1);
  p.ip.dst = net::make_ip(10, 0, 1, 1);
  p.tcp.src_port = 1234;
  p.tcp.dst_port = 80;
  p.payload_bytes = 1000;
  for (int i = 0; i < 8; ++i) {
    p.tcp.src_port = static_cast<net::TcpPort>(2000 + i);
    p.telem.reset();
    sampler.stamp(p, 0, sim::microseconds(10 + i));
  }
  EXPECT_EQ(sampler.active_flows(), 8);
  // After whole idle epochs, the census resets to the lone fresh flow.
  p.telem.reset();
  sampler.stamp(p, 0, sim::milliseconds(100));
  EXPECT_EQ(sampler.active_flows(), 1);
}

// End-to-end law: whatever the arsenal does, the vSwitch only ever lowers
// the VM's advertised window and never leaks telemetry or feedback
// artifacts into the tenant — checked by the InvariantChecker wired into
// run_plan. Swept over seeds and both telemetry-consuming algorithms.
TEST(ArsenalScenarioProperty, RwndOnlyLoweredAndNoTelemetryLeaks) {
  const std::uint64_t base = testlib::test_seed(0x50E4ACD3);
  int ran = 0;
  for (std::uint64_t off = 0; off < 6; ++off) {
    testlib::ScenarioPlan plan = testlib::make_plan(base + off);
    plan.int_telemetry = true;
    plan.arsenal_default_vcc = (off % 2 == 0) ? VccKind::kPowerTcp
                                              : VccKind::kFairRate;
    const testlib::RunOutcome outcome = testlib::run_plan(plan, {});
    EXPECT_EQ(outcome.violation_count, 0u)
        << "seed " << base + off << " plan " << plan.summary() << "\n"
        << (outcome.violations.empty() ? "" : outcome.violations.front());
    EXPECT_TRUE(outcome.completed) << "seed " << base + off;
    ++ran;
  }
  EXPECT_EQ(ran, 6);
}

}  // namespace
}  // namespace acdc::vswitch
