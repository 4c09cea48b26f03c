// Tenant TCP stack tests: handshake/option negotiation, reliable delivery,
// flow control against the advertised window, loss recovery (fast
// retransmit, SACK, RTO), ECN reaction, bidirectional transfer, teardown.
//
// Harness: HostPair (host_pair_fixture.h), two hosts wired NIC-to-NIC,
// optionally with an impairment filter in the datapath.
#include <gtest/gtest.h>

#include <vector>

#include "host_pair_fixture.h"
#include "tcp/cc/algorithms.h"
#include "tcp/seq.h"
#include "tcp/tcp_connection.h"

namespace acdc {
namespace {

using tcp::TcpConfig;
using tcp::TcpConnection;

// Drops selected egress data packets (by data-packet index).
class LossFilter : public net::DuplexFilter {
 public:
  explicit LossFilter(std::vector<std::int64_t> drop_indices)
      : drops_(std::move(drop_indices)) {}

  int dropped() const { return dropped_; }

 protected:
  void handle_egress(net::PacketPtr p) override {
    if (p->payload_bytes > 0) {
      const std::int64_t idx = data_index_++;
      for (std::int64_t d : drops_) {
        if (d == idx) {
          ++dropped_;
          return;
        }
      }
    }
    send_down(std::move(p));
  }

 private:
  std::vector<std::int64_t> drops_;
  std::int64_t data_index_ = 0;
  int dropped_ = 0;
};

// Marks every egress data packet CE (simulates a saturated ECN switch).
class CeMarkFilter : public net::DuplexFilter {
 protected:
  void handle_egress(net::PacketPtr p) override {
    if (p->payload_bytes > 0 && net::ecn_capable(p->ip.ecn)) {
      p->ip.ecn = net::Ecn::kCe;
      ++marked_;
    }
    send_down(std::move(p));
  }

 public:
  int marked_ = 0;
};

TcpConfig cfg(tcp::CcId cc = tcp::CcId::kCubic) {
  TcpConfig c;
  c.cc = cc;
  c.mss = 1448;
  return c;
}

TEST(TcpSeqTest, ModularComparisons) {
  using namespace tcp;
  EXPECT_TRUE(seq_lt(1, 2));
  EXPECT_TRUE(seq_gt(2, 1));
  EXPECT_TRUE(seq_le(5, 5));
  EXPECT_TRUE(seq_ge(5, 5));
  // Wraparound: 0xffffffff < 5 in sequence space.
  EXPECT_TRUE(seq_lt(0xffffffffu, 5));
  EXPECT_TRUE(seq_gt(5, 0xffffffffu));
  EXPECT_EQ(seq_max(0xffffffffu, 5), 5u);
  EXPECT_EQ(seq_min(0xffffffffu, 5), 0xffffffffu);
  EXPECT_EQ(seq_distance(0xfffffff0u, 16), 32u);
}

TEST(TcpHandshakeTest, EstablishesAndNegotiates) {
  HostPair net;
  net.b->listen(80, cfg());
  bool established = false;
  TcpConnection* c = net.a->connect(net.b->ip(), 80, cfg());
  c->on_established = [&] { established = true; };
  net.sim.run_until(sim::milliseconds(10));
  EXPECT_TRUE(established);
  EXPECT_EQ(c->state(), TcpConnection::State::kEstablished);
  ASSERT_EQ(net.b->connections().size(), 1u);
  EXPECT_EQ(net.b->connections()[0]->state(),
            TcpConnection::State::kEstablished);
  EXPECT_FALSE(c->ecn_negotiated());
  // SYN-ACK windows are unscaled (RFC 7323): capped at 64KB-1 right after
  // the handshake...
  EXPECT_EQ(c->peer_rwnd_bytes(), 65'535);
  // ...and scaled once real ACKs flow.
  c->send(200'000);
  net.sim.run_until(sim::milliseconds(20));
  EXPECT_GT(c->peer_rwnd_bytes(), 1 << 20);
}

TEST(TcpHandshakeTest, EcnNegotiationRequiresBothSides) {
  {
    HostPair net;
    TcpConfig e = cfg(tcp::CcId::kDctcp);
    ASSERT_TRUE(e.ecn || (e.ecn = true));
    net.b->listen(80, e);
    TcpConnection* c = net.a->connect(net.b->ip(), 80, e);
    net.sim.run_until(sim::milliseconds(10));
    EXPECT_TRUE(c->ecn_negotiated());
    EXPECT_TRUE(net.b->connections()[0]->ecn_negotiated());
  }
  {
    HostPair net;
    TcpConfig e = cfg(tcp::CcId::kDctcp);
    e.ecn = true;
    net.b->listen(80, cfg());  // server refuses ECN
    TcpConnection* c = net.a->connect(net.b->ip(), 80, e);
    net.sim.run_until(sim::milliseconds(10));
    EXPECT_FALSE(c->ecn_negotiated());
  }
}

TEST(TcpHandshakeTest, MssIsMinimumOfBothSides) {
  HostPair net;
  TcpConfig small = cfg();
  small.mss = 1000;
  net.b->listen(80, small);
  TcpConnection* c = net.a->connect(net.b->ip(), 80, cfg());
  net.sim.run_until(sim::milliseconds(10));
  EXPECT_EQ(c->cc_state().mss, 1000u);
}

TEST(TcpHandshakeTest, SynRetransmitsOnLoss) {
  // Drop nothing via LossFilter (it only drops payload); instead point A at
  // a black hole first, then reconnect the wire after 300ms.
  HostPair net;
  net.b->listen(80, cfg());
  net.a->nic().tx_port().set_peer(nullptr);
  TcpConnection* c = net.a->connect(net.b->ip(), 80, cfg());
  net.sim.schedule(sim::milliseconds(300),
                   [&] { net.a->nic().tx_port().set_peer(&net.b->nic()); });
  net.sim.run_until(sim::seconds(2));
  EXPECT_EQ(c->state(), TcpConnection::State::kEstablished);
  EXPECT_GE(c->stats().rtos, 1);
}

TEST(TcpTransferTest, DeliversExactByteCount) {
  HostPair net;
  net.b->listen(80, cfg());
  TcpConnection* c = net.a->connect(net.b->ip(), 80, cfg());
  c->on_established = [&] { c->send(1'000'000); };
  net.sim.run_until(sim::seconds(2));
  ASSERT_EQ(net.b->connections().size(), 1u);
  EXPECT_EQ(net.b->connections()[0]->delivered_bytes(), 1'000'000);
  EXPECT_EQ(c->acked_payload_bytes(), 1'000'000);
  EXPECT_EQ(c->bytes_in_flight(), 0);
  EXPECT_EQ(c->stats().retransmissions, 0);
}

TEST(TcpTransferTest, SmallMessageSingleSegment) {
  HostPair net;
  net.b->listen(80, cfg());
  TcpConnection* c = net.a->connect(net.b->ip(), 80, cfg());
  c->on_established = [&] { c->send(100); };
  net.sim.run_until(sim::milliseconds(50));
  EXPECT_EQ(net.b->connections()[0]->delivered_bytes(), 100);
}

TEST(TcpTransferTest, ApproachesLineRate) {
  HostPair net;
  TcpConfig c9 = cfg();
  c9.mss = 8960;
  net.b->listen(80, c9);
  TcpConnection* c = net.a->connect(net.b->ip(), 80, c9);
  std::int64_t total = 200'000'000;  // 200 MB over 10G ~ 160ms
  sim::Time done_at = sim::kNoTime;
  c->on_established = [&] { c->send(total); };
  c->on_acked = [&](std::int64_t acked) {
    if (acked >= total && done_at == sim::kNoTime) done_at = net.sim.now();
  };
  net.sim.run_until(sim::milliseconds(400));
  const std::int64_t delivered = net.b->connections()[0]->delivered_bytes();
  EXPECT_EQ(delivered, total);
  ASSERT_NE(done_at, sim::kNoTime);
  // >= 8 Gbps effective goodput.
  EXPECT_LT(sim::to_seconds(done_at), 0.20);
}

TEST(TcpTransferTest, ReceiveWindowLimitsThroughput) {
  HostPair net;
  TcpConfig tiny = cfg();
  tiny.receive_buffer_bytes = 64 * 1024;  // ~64KB window
  net.b->listen(80, tiny);
  TcpConnection* c = net.a->connect(net.b->ip(), 80, cfg());
  c->on_established = [&] { c->send(50'000'000); };
  net.sim.run_until(sim::milliseconds(100));
  // RTT ~ 9us (2x2us prop + serialisation); BDP at 10G ~ 12KB, so 64KB
  // window shouldn't bottleneck hard, but inflight must respect it.
  EXPECT_LE(c->bytes_in_flight(), 64 * 1024);
}

TEST(TcpTransferTest, IgnorePeerRwndExceedsWindow) {
  HostPair net;
  TcpConfig tiny = cfg();
  tiny.receive_buffer_bytes = 16 * 1024;
  net.b->listen(80, tiny);
  TcpConfig rogue = cfg(tcp::CcId::kAggressive);
  rogue.ignore_peer_rwnd = true;
  TcpConnection* c = net.a->connect(net.b->ip(), 80, rogue);
  bool exceeded = false;
  c->on_established = [&] { c->send(10'000'000); };
  for (int i = 0; i < 200; ++i) {
    net.sim.run_until(net.sim.now() + sim::microseconds(50));
    if (c->bytes_in_flight() > 16 * 1024) exceeded = true;
  }
  EXPECT_TRUE(exceeded) << "a rogue stack must be able to violate RWND";
}

TEST(TcpTransferTest, CwndClampBoundsInflight) {
  HostPair net;
  net.b->listen(80, cfg());
  TcpConfig clamped = cfg();
  clamped.cwnd_clamp_packets = 4;
  TcpConnection* c = net.a->connect(net.b->ip(), 80, clamped);
  c->on_established = [&] { c->send(20'000'000); };
  for (int i = 0; i < 100; ++i) {
    net.sim.run_until(net.sim.now() + sim::microseconds(100));
    EXPECT_LE(c->bytes_in_flight(), 4 * 1448 + 1448);
  }
}

TEST(TcpLossTest, SingleLossFastRetransmit) {
  LossFilter loss({20});
  HostPair net(&loss);
  net.b->listen(80, cfg());
  TcpConnection* c = net.a->connect(net.b->ip(), 80, cfg());
  c->on_established = [&] { c->send(1'000'000); };
  net.sim.run_until(sim::seconds(2));
  EXPECT_EQ(loss.dropped(), 1);
  EXPECT_EQ(net.b->connections()[0]->delivered_bytes(), 1'000'000);
  EXPECT_GE(c->stats().fast_retransmits, 1);
  EXPECT_EQ(c->stats().rtos, 0) << "SACK recovery should avoid the RTO";
}

TEST(TcpLossTest, MultipleLossesRecover) {
  LossFilter loss({10, 11, 12, 40, 90});
  HostPair net(&loss);
  net.b->listen(80, cfg());
  TcpConnection* c = net.a->connect(net.b->ip(), 80, cfg());
  c->on_established = [&] { c->send(2'000'000); };
  net.sim.run_until(sim::seconds(5));
  EXPECT_EQ(net.b->connections()[0]->delivered_bytes(), 2'000'000);
}

TEST(TcpLossTest, TailLossRecoversViaRto) {
  // Drop the very last data packet: no dupACKs can save us.
  // 100'000 bytes / 1448 = 70 segments, index 69 is last.
  LossFilter loss({69});
  HostPair net(&loss);
  net.b->listen(80, cfg());
  TcpConnection* c = net.a->connect(net.b->ip(), 80, cfg());
  c->on_established = [&] { c->send(100'000); };
  net.sim.run_until(sim::seconds(5));
  EXPECT_EQ(net.b->connections()[0]->delivered_bytes(), 100'000);
  EXPECT_GE(c->stats().rtos, 1);
}

TEST(TcpLossTest, NoSackStillRecovers) {
  LossFilter loss({15, 30});
  HostPair net(&loss);
  TcpConfig nosack = cfg();
  nosack.sack = false;
  net.b->listen(80, nosack);
  TcpConnection* c = net.a->connect(net.b->ip(), 80, nosack);
  c->on_established = [&] { c->send(1'000'000); };
  net.sim.run_until(sim::seconds(5));
  EXPECT_EQ(net.b->connections()[0]->delivered_bytes(), 1'000'000);
}

TEST(TcpEcnTest, ClassicEcnReducesOncePerWindow) {
  CeMarkFilter mark;
  HostPair net(&mark);
  TcpConfig e = cfg();
  e.ecn = true;
  net.b->listen(80, e);
  TcpConnection* c = net.a->connect(net.b->ip(), 80, e);
  c->on_established = [&] { c->send(3'000'000); };
  net.sim.run_until(sim::seconds(3));
  EXPECT_EQ(net.b->connections()[0]->delivered_bytes(), 3'000'000);
  EXPECT_GE(c->stats().ecn_reductions, 2);
  EXPECT_EQ(c->stats().rtos, 0);
  // Every mark hit an ECT packet (stack marked its data ECT).
  EXPECT_GT(mark.marked_, 0);
}

TEST(TcpEcnTest, DctcpAlphaRisesUnderPersistentMarking) {
  CeMarkFilter mark;
  HostPair net(&mark);
  TcpConfig e = cfg(tcp::CcId::kDctcp);
  e.ecn = true;
  net.b->listen(80, e);
  TcpConnection* c = net.a->connect(net.b->ip(), 80, e);
  c->on_established = [&] { c->send(3'000'000); };
  net.sim.run_until(sim::seconds(3));
  const auto& dctcp =
      dynamic_cast<const tcp::Dctcp&>(c->congestion_control());
  EXPECT_GT(dctcp.alpha(), 0.9) << "all bytes marked -> alpha ~ 1";
  EXPECT_EQ(net.b->connections()[0]->delivered_bytes(), 3'000'000);
}

TEST(TcpEcnTest, NonEcnFlowNeverMarksData) {
  CeMarkFilter mark;
  HostPair net(&mark);
  net.b->listen(80, cfg());
  TcpConnection* c = net.a->connect(net.b->ip(), 80, cfg());
  c->on_established = [&] { c->send(100'000); };
  net.sim.run_until(sim::seconds(1));
  EXPECT_EQ(mark.marked_, 0) << "non-ECN data must be Not-ECT";
}

TEST(TcpBidirectionalTest, EchoRoundTrip) {
  HostPair net;
  net.b->listen(80, cfg(), [](TcpConnection* server) {
    server->on_deliver = [server, echoed = std::int64_t{0}](
                             std::int64_t total) mutable {
      server->send(total - echoed);
      echoed = total;
    };
  });
  TcpConnection* c = net.a->connect(net.b->ip(), 80, cfg());
  c->on_established = [&] { c->send(64); };
  net.sim.run_until(sim::milliseconds(100));
  EXPECT_EQ(c->delivered_bytes(), 64);
}

TEST(TcpCloseTest, FinHandshakeBothDirections) {
  HostPair net;
  net.b->listen(80, cfg(), [](TcpConnection* server) {
    server->on_deliver = [server](std::int64_t total) {
      if (total >= 1000) server->close();
    };
  });
  TcpConnection* c = net.a->connect(net.b->ip(), 80, cfg());
  bool closed = false;
  c->on_closed = [&] { closed = true; };
  c->on_established = [&] {
    c->send(1000);
    c->close();
  };
  net.sim.run_until(sim::seconds(1));
  EXPECT_EQ(net.b->connections()[0]->delivered_bytes(), 1000);
  EXPECT_TRUE(closed);
  EXPECT_EQ(c->state(), TcpConnection::State::kDone);
  EXPECT_EQ(net.b->connections()[0]->state(), TcpConnection::State::kDone);
}

TEST(TcpDelayedAckTest, DelayedAckStillDelivers) {
  HostPair net;
  TcpConfig d = cfg();
  d.delayed_ack = true;
  net.b->listen(80, d);
  TcpConnection* c = net.a->connect(net.b->ip(), 80, cfg());
  c->on_established = [&] { c->send(500'000); };
  net.sim.run_until(sim::seconds(2));
  EXPECT_EQ(net.b->connections()[0]->delivered_bytes(), 500'000);
  // The receiver sent fewer ACK segments than data segments received.
  const auto& server = *net.b->connections()[0];
  EXPECT_LT(server.stats().segments_sent, server.stats().segments_received);
}

// Parameterised sweep: every congestion-control algorithm completes a
// transfer over a clean link and over a lossy link.
class CcSweepTest : public ::testing::TestWithParam<tcp::CcId> {};

TEST_P(CcSweepTest, CleanTransfer) {
  HostPair net;
  net.b->listen(80, cfg());
  TcpConnection* c = net.a->connect(net.b->ip(), 80, cfg(GetParam()));
  c->on_established = [&] { c->send(2'000'000); };
  net.sim.run_until(sim::seconds(3));
  EXPECT_EQ(net.b->connections()[0]->delivered_bytes(), 2'000'000);
}

TEST_P(CcSweepTest, LossyTransfer) {
  LossFilter loss({5, 25, 50, 100, 200});
  HostPair net(&loss);
  net.b->listen(80, cfg());
  TcpConnection* c = net.a->connect(net.b->ip(), 80, cfg(GetParam()));
  c->on_established = [&] { c->send(2'000'000); };
  net.sim.run_until(sim::seconds(10));
  EXPECT_EQ(net.b->connections()[0]->delivered_bytes(), 2'000'000);
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, CcSweepTest,
                         ::testing::Values(tcp::CcId::kReno, tcp::CcId::kCubic,
                                           tcp::CcId::kDctcp, tcp::CcId::kVegas,
                                           tcp::CcId::kIllinois,
                                           tcp::CcId::kHighspeed));

}  // namespace
}  // namespace acdc
