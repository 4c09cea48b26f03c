// Robustness and property sweeps: sequence-number wraparound mid-transfer,
// randomized loss/reorder/duplication patterns across every congestion
// control, AC/DC invariants under impairment, and PACK-counter wraparound.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <random>

#include "acdc/vswitch.h"
#include "host/host.h"
#include "host_pair_fixture.h"
#include "net/datapath.h"
#include "sim/simulator.h"
#include "tcp/tcp_connection.h"
#include "testlib/seed.h"

namespace acdc {
namespace {

using host::Host;
using host::HostConfig;
using tcp::TcpConfig;
using tcp::TcpConnection;

// Random impairments: drops, duplicates and short reorders of data packets.
class ChaosFilter : public net::DuplexFilter {
 public:
  ChaosFilter(std::uint64_t seed, double drop_p, double dup_p,
              double reorder_p)
      : rng_(seed), drop_p_(drop_p), dup_p_(dup_p), reorder_p_(reorder_p) {}

  int dropped = 0;
  int duplicated = 0;
  int reordered = 0;

 protected:
  void handle_egress(net::PacketPtr p) override {
    if (p->payload_bytes > 0) {
      const double x = real_(rng_);
      if (x < drop_p_) {
        ++dropped;
        flush_held();
        return;
      }
      if (x < drop_p_ + dup_p_) {
        ++duplicated;
        send_down(net::clone_packet(*p));
      } else if (x < drop_p_ + dup_p_ + reorder_p_ && held_ == nullptr) {
        ++reordered;
        held_ = std::move(p);  // release after the next packet
        return;
      }
    }
    send_down(std::move(p));
    flush_held();
  }

 private:
  void flush_held() {
    if (held_ != nullptr) send_down(std::move(held_));
  }

  std::mt19937_64 rng_;
  std::uniform_real_distribution<double> real_{0.0, 1.0};
  double drop_p_;
  double dup_p_;
  double reorder_p_;
  net::PacketPtr held_;
};

TEST(WraparoundTest, TransferAcrossSequenceWrap) {
  // Start just below 2^32 so sequence numbers wrap mid-transfer; the
  // modular arithmetic in the stack must be seamless.
  HostPair net;
  TcpConfig cfg;
  cfg.mss = 1448;
  cfg.initial_seq = 0xffff0000u;  // wraps after ~64KB
  net.b->listen(80, cfg);
  TcpConnection* c = net.a->connect(net.b->ip(), 80, cfg);
  c->on_established = [c] { c->send(5'000'000); };
  net.sim.run_until(sim::seconds(2));
  EXPECT_EQ(net.b->connections()[0]->delivered_bytes(), 5'000'000);
  EXPECT_EQ(c->acked_payload_bytes(), 5'000'000);
}

TEST(WraparoundTest, WrapWithLossRecovery) {
  ChaosFilter chaos(7, 0.01, 0.0, 0.0);
  HostPair net(&chaos);
  TcpConfig cfg;
  cfg.mss = 1448;
  cfg.initial_seq = 0xfffe0000u;
  net.b->listen(80, cfg);
  TcpConnection* c = net.a->connect(net.b->ip(), 80, cfg);
  c->on_established = [c] { c->send(2'000'000); };
  net.sim.run_until(sim::seconds(10));
  EXPECT_EQ(net.b->connections()[0]->delivered_bytes(), 2'000'000);
  EXPECT_GT(chaos.dropped, 0);
}

TEST(WraparoundTest, AcdcTracksFlowsAcrossWrap) {
  // The vSwitch's reconstructed snd_una/snd_nxt and its window enforcement
  // must survive the wrap too.
  sim::Simulator sim;
  HostConfig hc;
  hc.nic_queue_bytes = 8 * 1024 * 1024;
  Host a(&sim, "A", net::make_ip(10, 0, 0, 1), hc);
  Host b(&sim, "B", net::make_ip(10, 0, 0, 2), hc);
  vswitch::AcdcVswitch vs_a(&sim, {});
  vswitch::AcdcVswitch vs_b(&sim, {});
  a.add_filter(&vs_a);
  b.add_filter(&vs_b);
  a.nic().tx_port().set_peer(&b.nic());
  b.nic().tx_port().set_peer(&a.nic());
  TcpConfig cfg;
  cfg.mss = 1448;
  cfg.initial_seq = 0xffff8000u;
  b.listen(80, cfg);
  TcpConnection* c = a.connect(b.ip(), 80, cfg);
  c->on_established = [c] { c->send(3'000'000); };
  sim.run_until(sim::seconds(2));
  EXPECT_EQ(b.connections()[0]->delivered_bytes(), 3'000'000);
  EXPECT_GT(vs_a.stats().windows_lowered, 0);
}

TEST(PackCounterTest, FeedbackCountersWrapModulo32) {
  // The PACK totals are uint32 running counters; deltas must be computed
  // mod 2^32 (the sender module relies on unsigned subtraction).
  const std::uint32_t before = 0xffffff00u;
  const std::uint32_t after = 0x00000100u;
  const std::uint32_t delta = after - before;
  EXPECT_EQ(delta, 0x200u);
}

// Property sweep: every CC delivers exactly under random drop/dup/reorder.
struct ChaosParam {
  ChaosParam(tcp::CcId c, double drop_p, double dup_p, double reorder_p)
      : cc(c), drop(drop_p), dup(dup_p), reorder(reorder_p) {}
  tcp::CcId cc;
  // GoogleTest names each case after the raw bytes of its parameter. This
  // member fills what would be padding after `cc`; padding bytes are not
  // kept by copies and hold stale stack bytes, so without it the case names
  // change from build to build.
  std::int32_t zero = 0;
  double drop;
  double dup;
  double reorder;
};
static_assert(sizeof(ChaosParam) ==
                  sizeof(tcp::CcId) + sizeof(std::int32_t) + 3 * sizeof(double),
              "ChaosParam must have no padding bytes");

class ChaosSweepTest : public ::testing::TestWithParam<ChaosParam> {};

TEST_P(ChaosSweepTest, ExactDeliveryUnderImpairment) {
  const ChaosParam& p = GetParam();
  ChaosFilter chaos(testlib::test_seed(42), p.drop, p.dup, p.reorder);
  HostPair net(&chaos);
  TcpConfig cfg;
  cfg.mss = 1448;
  cfg.cc = p.cc;
  net.b->listen(80, cfg);
  TcpConnection* c = net.a->connect(net.b->ip(), 80, cfg);
  c->on_established = [c] { c->send(1'000'000); };
  net.sim.run_until(sim::seconds(20));
  EXPECT_EQ(net.b->connections()[0]->delivered_bytes(), 1'000'000)
      << p.cc << " drop=" << p.drop << " dup=" << p.dup
      << " reorder=" << p.reorder;
  EXPECT_EQ(c->acked_payload_bytes(), 1'000'000);
}

INSTANTIATE_TEST_SUITE_P(
    Impairments, ChaosSweepTest,
    ::testing::Values(ChaosParam{tcp::CcId::kCubic, 0.02, 0.0, 0.0},
                      ChaosParam{tcp::CcId::kCubic, 0.0, 0.05, 0.0},
                      ChaosParam{tcp::CcId::kCubic, 0.0, 0.0, 0.05},
                      ChaosParam{tcp::CcId::kCubic, 0.01, 0.02, 0.02},
                      ChaosParam{tcp::CcId::kReno, 0.02, 0.01, 0.01},
                      ChaosParam{tcp::CcId::kDctcp, 0.02, 0.01, 0.01},
                      ChaosParam{tcp::CcId::kVegas, 0.02, 0.01, 0.01},
                      ChaosParam{tcp::CcId::kIllinois, 0.02, 0.01, 0.01},
                      ChaosParam{tcp::CcId::kHighspeed, 0.02, 0.01, 0.01}));

// AC/DC under chaos: delivery still exact, enforcement invariants hold.
class AcdcChaosTest : public ::testing::TestWithParam<int> {};

TEST_P(AcdcChaosTest, EnforcementSurvivesImpairment) {
  ChaosFilter chaos(static_cast<std::uint64_t>(GetParam()), 0.01, 0.01,
                    0.02);
  sim::Simulator sim;
  HostConfig hc;
  hc.nic_queue_bytes = 8 * 1024 * 1024;
  Host a(&sim, "A", net::make_ip(10, 0, 0, 1), hc);
  Host b(&sim, "B", net::make_ip(10, 0, 0, 2), hc);
  vswitch::AcdcVswitch vs_a(&sim, {});
  vswitch::AcdcVswitch vs_b(&sim, {});
  a.add_filter(&vs_a);
  a.add_filter(&chaos);  // impairment below the vSwitch
  b.add_filter(&vs_b);
  a.nic().tx_port().set_peer(&b.nic());
  b.nic().tx_port().set_peer(&a.nic());

  std::int64_t min_window = std::numeric_limits<std::int64_t>::max();
  obs::FlightRecorder window_log(1);  // the listener sees every event
  vs_a.attach_observability({.recorder = &window_log});
  window_log.add_listener([&](const obs::TraceEvent& ev) {
    if (ev.type == obs::EventType::kWindowEnforced) {
      min_window = std::min(min_window, ev.a);
    }
  });

  TcpConfig cfg;
  cfg.mss = 1448;
  b.listen(80, cfg);
  TcpConnection* c = a.connect(b.ip(), 80, cfg);
  c->on_established = [c] { c->send(1'000'000); };
  sim.run_until(sim::seconds(20));
  EXPECT_EQ(b.connections()[0]->delivered_bytes(), 1'000'000);
  // Invariant: the enforced window never falls below one MSS.
  EXPECT_GE(min_window, 1448);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AcdcChaosTest, ::testing::Range(1, 6));

}  // namespace
}  // namespace acdc
