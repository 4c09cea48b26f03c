// Topology and substrate-device tests: switch routing, shared-buffer
// accounting under load, the token-bucket shaper, and reachability on the
// dumbbell / parking-lot / star builders.
#include <gtest/gtest.h>

#include "exp/dumbbell.h"
#include "exp/mode.h"
#include "exp/parking_lot.h"
#include "exp/star.h"
#include "net/switch.h"
#include "net/token_bucket.h"

namespace acdc {
namespace {

net::PacketPtr packet_to(net::IpAddr dst, std::int64_t payload = 1000) {
  auto p = net::make_packet();
  p->ip.dst = dst;
  p->payload_bytes = payload;
  return p;
}

class CollectSink : public net::PacketSink {
 public:
  void receive(net::PacketPtr p) override { packets.push_back(std::move(p)); }
  std::vector<net::PacketPtr> packets;
};

TEST(SwitchTest, RoutesByDestination) {
  sim::Simulator sim;
  net::Switch sw(&sim, "sw", net::SwitchConfig{});
  net::Port* p1 = sw.add_port(sim::gigabits_per_second(10),
                              sim::microseconds(1));
  net::Port* p2 = sw.add_port(sim::gigabits_per_second(10),
                              sim::microseconds(1));
  CollectSink h1;
  CollectSink h2;
  p1->set_peer(&h1);
  p2->set_peer(&h2);
  const net::IpAddr ip1 = net::make_ip(10, 0, 0, 1);
  const net::IpAddr ip2 = net::make_ip(10, 0, 0, 2);
  sw.add_route(ip1, p1);
  sw.add_route(ip2, p2);

  sw.receive(packet_to(ip1));
  sw.receive(packet_to(ip2));
  sw.receive(packet_to(ip2));
  sim.run();
  EXPECT_EQ(h1.packets.size(), 1u);
  EXPECT_EQ(h2.packets.size(), 2u);
}

TEST(SwitchTest, UnroutablePacketsCounted) {
  sim::Simulator sim;
  net::Switch sw(&sim, "sw", net::SwitchConfig{});
  sw.receive(packet_to(net::make_ip(1, 2, 3, 4)));
  EXPECT_EQ(sw.routing_failures(), 1);
}

TEST(SwitchTest, DefaultRouteCatchesRest) {
  sim::Simulator sim;
  net::Switch sw(&sim, "sw", net::SwitchConfig{});
  net::Port* trunk = sw.add_port(sim::gigabits_per_second(10),
                                 sim::microseconds(1));
  CollectSink far;
  trunk->set_peer(&far);
  sw.set_default_route(trunk);
  sw.receive(packet_to(net::make_ip(99, 0, 0, 7)));
  sim.run();
  EXPECT_EQ(far.packets.size(), 1u);
  EXPECT_EQ(sw.routing_failures(), 0);
}

TEST(SwitchTest, SharedBufferAccountsAcrossPorts) {
  sim::Simulator sim;
  net::SwitchConfig cfg;
  cfg.shared_buffer_bytes = 100'000;
  net::Switch sw(&sim, "sw", cfg);
  // A port with no peer still queues (transmission drains to nowhere).
  net::Port* p = sw.add_port(sim::kilobits_per_second(1), 0);
  const net::IpAddr ip = net::make_ip(10, 0, 0, 1);
  sw.add_route(ip, p);
  // Stuff the buffer; pool capacity must eventually reject.
  for (int i = 0; i < 200; ++i) sw.receive(packet_to(ip, 1'000));
  EXPECT_GT(sw.total_stats().dropped_packets, 0);
  EXPECT_LE(sw.buffer_pool().used_bytes(), 100'000);
}

net::PacketPtr ect_packet_to(net::IpAddr dst) {
  auto p = packet_to(dst);
  p->ip.ecn = net::Ecn::kEct0;
  return p;
}

TEST(SwitchTest, MarksEctAndDropsNonEctAtTheThreshold) {
  constexpr std::int64_t kK = 10'000;
  const net::IpAddr ip = net::make_ip(10, 0, 0, 1);
  const std::int64_t wire = packet_to(ip)->wire_bytes();
  {
    sim::Simulator sim;
    net::SwitchConfig cfg;
    cfg.mark_threshold_bytes = kK;
    net::Switch sw(&sim, "sw", cfg);
    net::Port* p = sw.add_port(sim::gigabits_per_second(10), 0);
    CollectSink sink;
    p->set_peer(&sink);
    sw.add_route(ip, p);
    // The first packet goes straight onto the wire; the rest wait (the
    // simulator does not run until the end), each arriving below K.
    sw.receive(ect_packet_to(ip));
    int below = 1;
    for (; p->queue().byte_length() < kK; ++below) {
      sw.receive(ect_packet_to(ip));
    }
    EXPECT_EQ(sw.total_stats().marked_packets, 0);
    // At K bytes or more, an ECT packet is CE-marked and accepted...
    sw.receive(ect_packet_to(ip));
    EXPECT_EQ(sw.total_stats().marked_packets, 1);
    EXPECT_EQ(sw.total_stats().dropped_packets, 0);
    // ...and a non-ECT packet in the same position is dropped and counted.
    const std::int64_t queued = p->queue().byte_length();
    sw.receive(packet_to(ip));
    EXPECT_EQ(sw.total_stats().dropped_packets, 1);
    EXPECT_EQ(sw.total_stats().dropped_bytes, wire);
    EXPECT_EQ(sw.total_stats().marked_packets, 1);
    EXPECT_EQ(p->queue().byte_length(), queued);
    sim.run();
    ASSERT_EQ(sink.packets.size(), static_cast<std::size_t>(below + 1));
    for (int i = 0; i < below; ++i) {
      EXPECT_EQ(sink.packets[i]->ip.ecn, net::Ecn::kEct0) << i;
    }
    EXPECT_EQ(sink.packets[below]->ip.ecn, net::Ecn::kCe);
  }
  {
    // K = 0 never marks, and only the shared pool bounds the port: a lone
    // queue grows while it holds less than the free buffer, so it stops
    // just past half the pool.
    sim::Simulator sim;
    net::SwitchConfig cfg;
    cfg.shared_buffer_bytes = 100'000;
    net::Switch sw(&sim, "sw", cfg);
    net::Port* p = sw.add_port(sim::gigabits_per_second(10), 0);
    sw.add_route(ip, p);
    for (int i = 0; i < 200; ++i) sw.receive(ect_packet_to(ip));
    const std::int64_t queued = p->queue().byte_length();
    EXPECT_EQ(sw.total_stats().marked_packets, 0);
    EXPECT_EQ(sw.buffer_pool().used_bytes(), queued);
    EXPECT_GE(queued, 50'000);
    EXPECT_LT(queued, 50'000 + wire);
    EXPECT_EQ(sw.total_stats().dropped_packets, 200 - 1 - queued / wire);
  }
}

TEST(PortTest, SerialisesAtLinkRate) {
  sim::Simulator sim;
  net::Port port(&sim, "p", sim::gigabits_per_second(1),
                 sim::microseconds(5), 1 << 20);
  CollectSink sink;
  port.set_peer(&sink);
  // Two packets of 1000 wire bytes (922 + 40 + 38) at 1G: 8us each to
  // serialise, so arrivals at 13us and 21us after the 5us propagation.
  port.send(packet_to(net::make_ip(1, 1, 1, 1), 922));
  port.send(packet_to(net::make_ip(1, 1, 1, 1), 922));
  sim.run_until(sim::microseconds(12));
  EXPECT_EQ(sink.packets.size(), 0u);
  sim.run_until(sim::microseconds(14));
  EXPECT_EQ(sink.packets.size(), 1u);
  sim.run_until(sim::microseconds(22));
  EXPECT_EQ(sink.packets.size(), 2u);
  EXPECT_EQ(port.transmitted_packets(), 2);
}

TEST(TokenBucketTest, ShapesToConfiguredRate) {
  sim::Simulator sim;
  net::TokenBucketShaper shaper(&sim, sim::megabits_per_second(100),
                                20'000);
  CollectSink sink;
  shaper.set_down(&sink);
  // Offer 2MB instantly; at 100 Mbps ~ 12.5KB/ms drains.
  std::int64_t offered = 0;
  while (offered < 2'000'000) {
    shaper.egress_in().receive(packet_to(net::make_ip(1, 1, 1, 1), 1'000));
    offered += 1'000 + 40 + net::kEthernetOverheadBytes;
  }
  sim.run_until(sim::milliseconds(50));
  std::int64_t delivered = 0;
  for (const auto& p : sink.packets) delivered += p->wire_bytes();
  // 50ms at 100Mbps = 625KB (+ burst).
  EXPECT_NEAR(static_cast<double>(delivered), 625'000 + 20'000, 30'000);
}

TEST(TokenBucketTest, BacklogCapDrops) {
  sim::Simulator sim;
  net::TokenBucketShaper shaper(&sim, sim::megabits_per_second(10), 5'000,
                                50'000);
  CollectSink sink;
  shaper.set_down(&sink);
  for (int i = 0; i < 100; ++i) {
    shaper.egress_in().receive(packet_to(net::make_ip(1, 1, 1, 1), 1'000));
  }
  EXPECT_GT(shaper.dropped_packets(), 0);
  EXPECT_LE(shaper.backlog_bytes(), 50'000);
}

TEST(TokenBucketTest, IngressPassesThrough) {
  sim::Simulator sim;
  net::TokenBucketShaper shaper(&sim, sim::kilobits_per_second(1), 2'000);
  CollectSink up;
  shaper.set_up(&up);
  shaper.ingress_in().receive(packet_to(net::make_ip(1, 1, 1, 1), 1'000));
  EXPECT_EQ(up.packets.size(), 1u) << "shaping applies to egress only";
}

// The shaper's preconditions hold in every build, NDEBUG included: a zero
// rate would reach drain()'s deficit * 8e9 / rate and convert the infinite
// wait to sim::Time.
TEST(TokenBucketDeathTest, RateAndBurstMustBePositive) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  sim::Simulator sim;
  EXPECT_DEATH(net::TokenBucketShaper(&sim, 0, 20'000),
               "token bucket: rate must be positive \\(rate=0 bps\\)");
  EXPECT_DEATH(
      net::TokenBucketShaper(&sim, sim::megabits_per_second(100), 0),
      "token bucket: burst_bytes must be positive \\(burst_bytes=0\\)");
}

// Reachability sweep over every topology builder: every host pair can
// complete a small transfer (routes are correct in both directions).
TEST(TopologyTest, DumbbellAllPairsReachable) {
  exp::DumbbellConfig cfg;
  cfg.scenario = exp::scenario_config_for(exp::Mode::kDctcp);
  cfg.pairs = 3;
  exp::Dumbbell bell(cfg);
  exp::Scenario& s = bell.scenario();
  std::vector<host::BulkApp*> apps;
  for (int i = 0; i < 3; ++i) {
    apps.push_back(s.add_bulk_flow(bell.sender(i), bell.receiver(i),
                                   s.tcp_config(tcp::CcId::kCubic), 0, 50'000));
    // And the reverse direction.
    apps.push_back(s.add_bulk_flow(bell.receiver(i), bell.sender(i),
                                   s.tcp_config(tcp::CcId::kCubic), 0, 50'000));
  }
  s.run_until(sim::milliseconds(100));
  for (auto* a : apps) EXPECT_TRUE(a->completed());
}

TEST(TopologyTest, ParkingLotAllFlowsReachable) {
  exp::ParkingLotConfig cfg;
  cfg.scenario = exp::scenario_config_for(exp::Mode::kDctcp);
  cfg.segments = 3;
  exp::ParkingLot lot(cfg);
  exp::Scenario& s = lot.scenario();
  std::vector<host::BulkApp*> apps;
  apps.push_back(s.add_bulk_flow(lot.long_sender(), lot.long_receiver(),
                                 s.tcp_config(tcp::CcId::kCubic), 0, 50'000));
  for (int i = 0; i < 3; ++i) {
    apps.push_back(s.add_bulk_flow(lot.cross_sender(i), lot.long_receiver(),
                                   s.tcp_config(tcp::CcId::kCubic), 0, 50'000));
    apps.push_back(s.add_bulk_flow(lot.cross_sender(i), lot.cross_receiver(i),
                                   s.tcp_config(tcp::CcId::kCubic), 0, 50'000));
  }
  s.run_until(sim::milliseconds(200));
  for (auto* a : apps) EXPECT_TRUE(a->completed());
}

TEST(TopologyTest, StarFullMeshReachable) {
  exp::StarConfig cfg;
  cfg.scenario = exp::scenario_config_for(exp::Mode::kDctcp);
  cfg.hosts = 5;
  exp::Star star(cfg);
  exp::Scenario& s = star.scenario();
  std::vector<host::BulkApp*> apps;
  for (int i = 0; i < 5; ++i) {
    for (int j = 0; j < 5; ++j) {
      if (i == j) continue;
      apps.push_back(s.add_bulk_flow(star.host(i), star.host(j),
                                     s.tcp_config(tcp::CcId::kCubic), 0, 20'000));
    }
  }
  s.run_until(sim::milliseconds(200));
  for (auto* a : apps) EXPECT_TRUE(a->completed());
}

}  // namespace
}  // namespace acdc
