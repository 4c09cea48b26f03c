// Unit tests for the integer-scaled RFC 6298 estimator (acdc/rtt_estimator.h)
// against hand-computed fixed-point sequences, plus the sender module's
// sampling discipline: one outstanding sample per flow, completed by the
// cumulative ACK, and Karn's rule (a retransmitted segment never yields a
// sample).
#include <gtest/gtest.h>

#include "acdc/rtt_estimator.h"
#include "sender_module_fixture.h"

namespace acdc::vswitch {
namespace {

TEST(RttEstimator, FirstSampleSeedsSrttAndHalfVariance) {
  RttEstimator e;
  EXPECT_FALSE(e.valid());
  e.on_sample(100);
  EXPECT_TRUE(e.valid());
  // RFC 6298 §2.2: srtt = R, rttvar = R/2 -> rto = srtt + 4·rttvar = 3R.
  EXPECT_EQ(e.srtt_x8, 800u);
  EXPECT_EQ(e.rttvar_x4, 200u);
  EXPECT_EQ(e.srtt_us(), 100u);
  EXPECT_EQ(e.min_rtt_us, 100u);
  EXPECT_EQ(e.rto_us(), 300u);
}

TEST(RttEstimator, SteadySampleDecaysVariance) {
  RttEstimator e;
  e.on_sample(100);
  // Identical sample: err = 0, so srtt holds and rttvar loses a quarter.
  e.on_sample(100);
  EXPECT_EQ(e.srtt_x8, 800u);
  EXPECT_EQ(e.rttvar_x4, 150u);
  EXPECT_EQ(e.rto_us(), 250u);
}

TEST(RttEstimator, LargerSampleRaisesBothTerms) {
  RttEstimator e;
  e.on_sample(100);
  // err = +80: srtt_x8 += 80 (one-eighth gain in x8 units), and rttvar
  // gains |err| - rttvar/4 = 80 - 50 = 30.
  e.on_sample(180);
  EXPECT_EQ(e.srtt_x8, 880u);
  EXPECT_EQ(e.srtt_us(), 110u);
  EXPECT_EQ(e.rttvar_x4, 230u);
  EXPECT_EQ(e.rto_us(), 340u);
  EXPECT_EQ(e.min_rtt_us, 100u) << "min must not rise";
}

TEST(RttEstimator, SmallerSampleUsesSlowDecrease) {
  RttEstimator e;
  e.on_sample(100);
  // err = -40. srtt drops by 40/8 = 5µs. For the deviation, |err| = 40 is
  // below rttvar/4 = 50, so the Linux slow-decrease shift never engages and
  // rttvar only sheds the difference: 200 + (40 - 50) = 190.
  e.on_sample(60);
  EXPECT_EQ(e.srtt_x8, 760u);
  EXPECT_EQ(e.srtt_us(), 95u);
  EXPECT_EQ(e.rttvar_x4, 190u);
  EXPECT_EQ(e.min_rtt_us, 60u);
}

TEST(RttEstimator, SlowDecreaseShiftEngagesOnBigDownwardError) {
  RttEstimator e;
  e.on_sample(1000);  // srtt_x8 = 8000, rttvar_x4 = 2000
  // err = -900: |err| - rttvar/4 = 900 - 500 = 400 > 0, so the decrease is
  // geared down by 8 -> rttvar gains only 50 instead of 400.
  e.on_sample(100);
  EXPECT_EQ(e.srtt_x8, 7100u);
  EXPECT_EQ(e.rttvar_x4, 2050u);
}

TEST(RttEstimator, BackoffShiftsExponentiallyAndSaturates) {
  RttEstimator e;
  e.on_sample(100);  // rto = 300
  EXPECT_EQ(e.rto_us(0), 300u);
  EXPECT_EQ(e.rto_us(1), 600u);
  EXPECT_EQ(e.rto_us(3), 2'400u);
  // The shift clamps at 24 so a stuck flow can't overflow the arithmetic.
  EXPECT_EQ(e.rto_us(24), std::uint64_t{300} << 24);
  EXPECT_EQ(e.rto_us(60), std::uint64_t{300} << 24);
}

TEST(RttEstimator, ZeroSampleCountsAsOneMicrosecond) {
  RttEstimator e;
  e.on_sample(0);
  EXPECT_TRUE(e.valid());
  EXPECT_EQ(e.srtt_us(), 1u);
  EXPECT_EQ(e.min_rtt_us, 1u);
  EXPECT_EQ(e.rto_us(), 3u);
}

TEST(RttEstimator, ConvergesOnConstantInput) {
  RttEstimator e;
  e.on_sample(200);
  for (int i = 0; i < 50; ++i) e.on_sample(200);
  EXPECT_EQ(e.srtt_us(), 200u);
  // rttvar decays geometrically until rttvar_x4 >> 2 == 0 (i.e. 3).
  EXPECT_EQ(e.rttvar_x4, 3u);
  EXPECT_EQ(e.rto_us(), 203u);
  EXPECT_EQ(e.min_rtt_us, 200u);
}

// --- Sampling discipline in the sender module -----------------------------

class RttSamplingTest : public SenderModuleFixture {};

TEST_F(RttSamplingTest, AckCompletingTheSampleFeedsTheEstimator) {
  ASSERT_TRUE(egress(data_packet(1'000, 1'000)));
  EXPECT_TRUE(entry().rtt_sample_pending);
  sim_.run_until(sim::microseconds(300));
  ASSERT_TRUE(ingress(ack_packet(2'000)));
  EXPECT_FALSE(entry().rtt_sample_pending);
  EXPECT_EQ(core_.stats.rtt_samples, 1);
  EXPECT_TRUE(entry().rtt.valid());
  EXPECT_EQ(entry().rtt.srtt_us(), 300u);
  EXPECT_EQ(entry().rtt.min_rtt_us, 300u);
}

TEST_F(RttSamplingTest, PartialAckKeepsTheSamplePending) {
  ASSERT_TRUE(egress(data_packet(1'000, 3'000)));
  sim_.run_until(sim::microseconds(100));
  // The sample covers the whole segment (end = 4000); acking half of it
  // must not complete the measurement.
  ASSERT_TRUE(ingress(ack_packet(2'500)));
  EXPECT_TRUE(entry().rtt_sample_pending);
  EXPECT_EQ(core_.stats.rtt_samples, 0);
  sim_.run_until(sim::microseconds(250));
  ASSERT_TRUE(ingress(ack_packet(4'000)));
  EXPECT_EQ(core_.stats.rtt_samples, 1);
  EXPECT_EQ(entry().rtt.srtt_us(), 250u) << "timed from the original send";
}

TEST_F(RttSamplingTest, KarnsRuleDropsRetransmittedSamples) {
  ASSERT_TRUE(egress(data_packet(1'000, 1'000)));
  EXPECT_TRUE(entry().rtt_sample_pending);
  // Retransmission of the sampled segment: the measurement is poisoned
  // (the eventual ACK could match either transmission).
  ASSERT_TRUE(egress(data_packet(1'000, 1'000)));
  EXPECT_FALSE(entry().rtt_sample_pending);
  sim_.run_until(sim::microseconds(500));
  ASSERT_TRUE(ingress(ack_packet(2'000)));
  EXPECT_EQ(core_.stats.rtt_samples, 0);
  EXPECT_FALSE(entry().rtt.valid());

  // The next fresh segment re-arms sampling as usual.
  ASSERT_TRUE(egress(data_packet(2'000, 1'000)));
  EXPECT_TRUE(entry().rtt_sample_pending);
  sim_.run_until(sim::microseconds(700));
  ASSERT_TRUE(ingress(ack_packet(3'000)));
  EXPECT_EQ(core_.stats.rtt_samples, 1);
  EXPECT_EQ(entry().rtt.srtt_us(), 200u);
}

TEST_F(RttSamplingTest, OnlyOneSampleInFlightPerFlow) {
  ASSERT_TRUE(egress(data_packet(1'000, 1'000)));
  const std::uint32_t armed_end = entry().rtt_sample_end;
  // A second in-flight segment must not re-arm (one timer per flow, like
  // the classic non-timestamp TCP sampler).
  sim_.run_until(sim::microseconds(50));
  ASSERT_TRUE(egress(data_packet(2'000, 1'000)));
  EXPECT_EQ(entry().rtt_sample_end, armed_end);
  sim_.run_until(sim::microseconds(100));
  // The cumulative ACK for both completes the one pending sample.
  ASSERT_TRUE(ingress(ack_packet(3'000)));
  EXPECT_EQ(core_.stats.rtt_samples, 1);
  EXPECT_EQ(entry().rtt.srtt_us(), 100u);
}

TEST_F(RttSamplingTest, SynSegmentsAreNotSampled) {
  net::Packet syn = data_packet(100, 0);
  syn.tcp.flags = net::TcpFlags{};
  syn.tcp.flags.syn = true;
  ASSERT_TRUE(egress(syn));
  EXPECT_FALSE(entry().rtt_sample_pending)
      << "handshake-only flows keep the inactivity-scan fallback";
}

}  // namespace
}  // namespace acdc::vswitch
