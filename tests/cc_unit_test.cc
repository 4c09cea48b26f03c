// Unit tests for the tenant congestion-control algorithms, driven directly
// through the CongestionControl interface (no network).
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <random>
#include <string>

#include "tcp/cc/algorithms.h"
#include "testlib/seed.h"

namespace acdc::tcp {
namespace {

CcState make_state(double cwnd, double ssthresh) {
  CcState s;
  s.cwnd = cwnd;
  s.ssthresh = ssthresh;
  s.mss = 1448;
  s.srtt = sim::microseconds(100);
  s.min_rtt = sim::microseconds(80);
  return s;
}

AckSample ack_of(int packets, sim::Time rtt = sim::microseconds(100)) {
  AckSample a;
  a.acked_packets = packets;
  a.acked_bytes = static_cast<std::int64_t>(packets) * 1448;
  a.rtt = rtt;
  return a;
}

TEST(CcRegistryTest, EveryIdResolvesAndRoundTrips) {
  std::string listed;
  for (CcId id : {CcId::kReno, CcId::kCubic, CcId::kDctcp, CcId::kVegas,
                  CcId::kIllinois, CcId::kHighspeed, CcId::kAggressive}) {
    ASSERT_NE(make_congestion_control(id), nullptr) << to_string(id);
    // The canonical name is the CLI spelling: it parses back to its id.
    EXPECT_EQ(parse_cc_id(to_string(id)), id);
    if (!listed.empty()) listed += ", ";
    listed += to_string(id);
  }
  // The bad-flag message lists the same names, in the same order.
  EXPECT_EQ(valid_cc_names(), listed);
}

TEST(CcRegistryTest, ParseRejectsUnknownNames) {
  EXPECT_EQ(parse_cc_id("bbr"), std::nullopt);
  EXPECT_EQ(parse_cc_id(""), std::nullopt);
  EXPECT_EQ(parse_cc_id("CUBIC"), std::nullopt);  // names are lowercase
}

TEST(RenoTest, SlowStartDoublesPerRtt) {
  NewReno reno;
  CcState s = make_state(10, 1e9);
  // 10 ACKs of 1 packet each = one RTT's worth.
  for (int i = 0; i < 10; ++i) reno.on_ack(s, ack_of(1));
  EXPECT_DOUBLE_EQ(s.cwnd, 20.0);
}

TEST(RenoTest, CongestionAvoidanceOnePacketPerRtt) {
  NewReno reno;
  CcState s = make_state(10, 5);  // past ssthresh
  for (int i = 0; i < 10; ++i) reno.on_ack(s, ack_of(1));
  EXPECT_NEAR(s.cwnd, 11.0, 0.05);
}

TEST(RenoTest, HalvesOnLoss) {
  NewReno reno;
  CcState s = make_state(100, 1e9);
  EXPECT_DOUBLE_EQ(reno.ssthresh_after_loss(s), 50.0);
  s.cwnd = 3;
  EXPECT_DOUBLE_EQ(reno.ssthresh_after_loss(s), 2.0) << "floor at 2";
}

TEST(CubicTest, ReductionIsBeta) {
  Cubic cubic;
  CcState s = make_state(100, 50);
  cubic.init(s);
  EXPECT_NEAR(cubic.ssthresh_after_loss(s), 70.0, 1e-9);
}

TEST(CubicTest, FastConvergenceLowersPlateau) {
  Cubic cubic;
  CcState s = make_state(100, 50);
  cubic.init(s);
  (void)cubic.ssthresh_after_loss(s);  // w_last_max = 100
  s.cwnd = 80;                         // second loss below the plateau
  (void)cubic.ssthresh_after_loss(s);
  // Plateau now 80*(2-0.7)/2 = 52: growth aims below the old max.
  cubic.on_window_reduction(s);
  s.cwnd = 40;
  s.ssthresh = 40;
  s.now = sim::milliseconds(1);
  AckSample a = ack_of(1);
  double target_seen = 0;
  for (int i = 0; i < 2000; ++i) {
    s.now += sim::microseconds(100);
    cubic.on_ack(s, a);
    target_seen = std::max(target_seen, s.cwnd);
  }
  EXPECT_GT(target_seen, 52.0);
}

TEST(CubicTest, GrowsSlowlyNearPlateauFastBeyond) {
  Cubic cubic;
  CcState s = make_state(100, 1);  // CA
  cubic.init(s);
  s.cwnd = 100;
  (void)cubic.ssthresh_after_loss(s);  // plateau = 100
  cubic.on_window_reduction(s);
  s.cwnd = 70;
  s.ssthresh = 70;
  s.now = 0;
  // Near the plateau the per-RTT gain shrinks, far out it accelerates.
  double w_prev = s.cwnd;
  double gain_early = 0;
  double gain_late = 0;
  for (int ms = 1; ms <= 3000; ++ms) {
    s.now = sim::milliseconds(ms);
    cubic.on_ack(s, ack_of(10));
    if (ms == 500) gain_early = s.cwnd - w_prev;
    if (ms == 3000) gain_late = s.cwnd - 100.0;
  }
  EXPECT_GT(gain_late, gain_early);
  EXPECT_GT(s.cwnd, 100.0);
}

TEST(DctcpUnitTest, AlphaTracksMarkingFraction) {
  Dctcp dctcp;
  CcState s = make_state(10, 1);  // CA so cwnd moves slowly
  dctcp.init(s);
  // 30% of bytes marked (Bernoulli per ACK), many update windows.
  std::mt19937_64 rng(testlib::test_seed(5));
  for (int i = 0; i < 5000; ++i) {
    AckSample a = ack_of(1);
    a.ece = rng() % 10 < 3;
    dctcp.on_ack(s, a);
  }
  EXPECT_NEAR(dctcp.alpha(), 0.3, 0.1);
  // ssthresh_after_ecn applies the alpha-proportional cut.
  EXPECT_NEAR(dctcp.ssthresh_after_ecn(s), s.cwnd * (1 - dctcp.alpha() / 2),
              0.5);
}

TEST(DctcpUnitTest, LossStillHalves) {
  Dctcp dctcp;
  CcState s = make_state(40, 1);
  dctcp.init(s);
  EXPECT_DOUBLE_EQ(dctcp.ssthresh_after_loss(s), 20.0);
}

TEST(VegasTest, BacksOffWhenQueueing) {
  Vegas vegas;
  CcState s = make_state(50, 1);  // CA
  vegas.init(s);
  s.srtt = sim::microseconds(100);
  // First round establishes base RTT ~100us; then RTT jumps to 200us:
  // diff = 50 * 100/200 = 25 packets queued >> beta -> decrease.
  for (int round = 0; round < 20; ++round) {
    const sim::Time rtt =
        round < 3 ? sim::microseconds(100) : sim::microseconds(200);
    for (int i = 0; i < 5; ++i) {
      s.now += sim::microseconds(25);
      vegas.on_ack(s, ack_of(1, rtt));
    }
  }
  EXPECT_LT(s.cwnd, 50.0);
}

TEST(VegasTest, GrowsWhenPathIdle) {
  Vegas vegas;
  CcState s = make_state(10, 1);
  vegas.init(s);
  s.srtt = sim::microseconds(100);
  for (int i = 0; i < 200; ++i) {
    s.now += sim::microseconds(25);
    vegas.on_ack(s, ack_of(1, sim::microseconds(100)));
  }
  EXPECT_GT(s.cwnd, 10.0);
}

TEST(IllinoisTest, AggressiveAtLowDelayTimidAtHigh) {
  // Low queueing delay: alpha ramps to max -> fast growth; high delay:
  // growth ~alpha_min.
  auto run = [](sim::Time rtt_late) {
    Illinois ill;
    CcState s = make_state(100, 1);
    ill.init(s);
    s.srtt = sim::microseconds(100);
    double before = 0;
    for (int i = 0; i < 3000; ++i) {
      s.now += sim::microseconds(20);
      // Training phase: one congested burst establishes d_m (~900us of
      // queueing above the 100us base); then the delay under test.
      sim::Time rtt;
      if (i < 200) {
        rtt = sim::microseconds(100);
      } else if (i < 500) {
        rtt = sim::microseconds(1000);
      } else {
        rtt = rtt_late;
      }
      if (i == 1500) before = s.cwnd;
      ill.on_ack(s, ack_of(1, rtt));
    }
    return s.cwnd - before;
  };
  const double low_delay_growth = run(sim::microseconds(105));
  const double high_delay_growth = run(sim::microseconds(1000));
  EXPECT_GT(low_delay_growth, 2.0 * high_delay_growth);
}

TEST(IllinoisTest, BackoffDependsOnDelay) {
  Illinois ill;
  CcState s = make_state(100, 1);
  ill.init(s);
  // Without delay history beta stays at max -> halve.
  EXPECT_NEAR(ill.ssthresh_after_loss(s), 50.0, 1.0);
}

TEST(HighSpeedTest, ResponseFunctionAnchors) {
  EXPECT_DOUBLE_EQ(HighSpeed::additive_increase(20), 1.0);
  EXPECT_DOUBLE_EQ(HighSpeed::decrease_factor(20), 0.5);
  // At large windows: bigger AI, smaller MD (RFC 3649 table: a(83000)=70+,
  // b(83000)=0.1).
  EXPECT_GT(HighSpeed::additive_increase(83'000), 50.0);
  EXPECT_NEAR(HighSpeed::decrease_factor(83'000), 0.1, 0.01);
  // Monotonicity.
  EXPECT_GT(HighSpeed::additive_increase(10'000),
            HighSpeed::additive_increase(1'000));
  EXPECT_LT(HighSpeed::decrease_factor(10'000),
            HighSpeed::decrease_factor(1'000));
}

TEST(HighSpeedTest, RenoBelowLowWindow) {
  HighSpeed hs;
  CcState s = make_state(20, 1);
  for (int i = 0; i < 20; ++i) hs.on_ack(s, ack_of(1));
  EXPECT_NEAR(s.cwnd, 21.0, 0.05);
  EXPECT_DOUBLE_EQ(hs.ssthresh_after_loss(s), s.cwnd * 0.5);
}

TEST(AggressiveTest, NeverBacksOff) {
  AggressiveCc agg;
  CcState s = make_state(100, 1);
  EXPECT_DOUBLE_EQ(agg.ssthresh_after_loss(s), 100.0);
  agg.on_ack(s, ack_of(10));
  EXPECT_DOUBLE_EQ(s.cwnd, 110.0);
}

// Property sweep: every algorithm keeps cwnd within sane bounds through a
// randomized ack/loss schedule.
class CcPropertyTest : public ::testing::TestWithParam<CcId> {};

TEST_P(CcPropertyTest, WindowStaysSane) {
  auto cc = make_congestion_control(GetParam());
  CcState s = make_state(10, 64);
  cc->init(s);
  std::mt19937_64 rng(testlib::test_seed(99));
  for (int i = 0; i < 50'000; ++i) {
    s.now += sim::microseconds(50);
    if (rng() % 199 == 0) {
      s.ssthresh = cc->ssthresh_after_loss(s);
      s.cwnd = std::max(CongestionControl::kMinCwnd, s.ssthresh);
      cc->on_window_reduction(s);
    } else if (rng() % 997 == 0) {
      s.ssthresh = cc->ssthresh_after_loss(s);
      s.cwnd = 1;
      cc->on_rto(s);
    } else {
      AckSample a = ack_of(1, sim::microseconds(80 + rng() % 200));
      a.ece = rng() % 10 == 0;
      cc->on_ack(s, a);
    }
    ASSERT_GE(s.cwnd, 1.0) << to_string(GetParam()) << " at step " << i;
    ASSERT_LT(s.cwnd, 1e7) << to_string(GetParam()) << " at step " << i;
    ASSERT_FALSE(std::isnan(s.cwnd)) << to_string(GetParam());
  }
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, CcPropertyTest,
                         ::testing::Values(CcId::kReno, CcId::kCubic, CcId::kDctcp,
                                           CcId::kVegas, CcId::kIllinois,
                                           CcId::kHighspeed));

}  // namespace
}  // namespace acdc::tcp
