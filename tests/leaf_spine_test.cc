// Leaf–spine + ECMP tests: reachability across the fabric, hash-based path
// selection (per-flow stickiness, cross-flow spreading), and the §2.3
// collision scenario AC/DC's flow granularity addresses.
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <vector>

#include "exp/leaf_spine.h"
#include "exp/mode.h"
#include "net/packet.h"
#include "net/port.h"

namespace acdc {
namespace {

TEST(LeafSpineTest, AllPairsReachable) {
  exp::LeafSpineConfig cfg;
  cfg.scenario = exp::scenario_config_for(exp::Mode::kDctcp);
  exp::LeafSpine fabric(cfg);
  exp::Scenario& s = fabric.scenario();
  std::vector<host::BulkApp*> apps;
  for (int l = 0; l < fabric.leaves(); ++l) {
    for (int h = 0; h < fabric.hosts_per_leaf(); ++h) {
      const int dl = (l + 1) % fabric.leaves();
      apps.push_back(s.add_bulk_flow(fabric.host(l, h), fabric.host(dl, h),
                                     s.tcp_config(tcp::CcId::kCubic), 0, 50'000));
      // Intra-leaf too.
      apps.push_back(s.add_bulk_flow(
          fabric.host(l, h), fabric.host(l, (h + 1) % fabric.hosts_per_leaf()),
          s.tcp_config(tcp::CcId::kCubic), 0, 50'000));
    }
  }
  s.run_until(sim::milliseconds(200));
  for (auto* a : apps) EXPECT_TRUE(a->completed());
}

TEST(LeafSpineTest, EcmpSpreadsFlowsAcrossSpines) {
  exp::LeafSpineConfig cfg;
  cfg.scenario = exp::scenario_config_for(exp::Mode::kDctcp);
  cfg.spines = 2;
  exp::LeafSpine fabric(cfg);
  exp::Scenario& s = fabric.scenario();
  // Many flows between the same host pair: different source ports hash to
  // different uplinks.
  std::vector<host::BulkApp*> apps;
  for (int i = 0; i < 16; ++i) {
    apps.push_back(s.add_bulk_flow(fabric.host(0, 0), fabric.host(1, 0),
                                   s.tcp_config(tcp::CcId::kCubic), 0, 200'000));
  }
  s.run_until(sim::milliseconds(300));
  for (auto* a : apps) ASSERT_TRUE(a->completed());
  const std::int64_t up0 = fabric.uplink(0, 0)->transmitted_packets();
  const std::int64_t up1 = fabric.uplink(0, 1)->transmitted_packets();
  EXPECT_GT(up0, 0) << "ECMP must use both spines";
  EXPECT_GT(up1, 0) << "ECMP must use both spines";
}

TEST(LeafSpineTest, IntraLeafTrafficStaysLocal) {
  exp::LeafSpineConfig cfg;
  cfg.scenario = exp::scenario_config_for(exp::Mode::kDctcp);
  exp::LeafSpine fabric(cfg);
  exp::Scenario& s = fabric.scenario();
  auto* app = s.add_bulk_flow(fabric.host(0, 0), fabric.host(0, 1),
                              s.tcp_config(tcp::CcId::kCubic), 0, 500'000);
  s.run_until(sim::milliseconds(100));
  EXPECT_TRUE(app->completed());
  EXPECT_EQ(fabric.uplink(0, 0)->transmitted_packets(), 0);
  EXPECT_EQ(fabric.uplink(0, 1)->transmitted_packets(), 0);
}

TEST(LeafSpineTest, NoRoutingFailures) {
  exp::LeafSpineConfig cfg;
  cfg.scenario = exp::scenario_config_for(exp::Mode::kDctcp);
  cfg.leaves = 3;
  cfg.spines = 3;
  exp::LeafSpine fabric(cfg);
  exp::Scenario& s = fabric.scenario();
  for (int l = 0; l < 3; ++l) {
    s.add_bulk_flow(fabric.host(l, 0), fabric.host((l + 1) % 3, 1),
                    s.tcp_config(tcp::CcId::kCubic), 0, 100'000);
  }
  s.run_until(sim::milliseconds(200));
  for (int l = 0; l < 3; ++l) {
    EXPECT_EQ(fabric.leaf(l)->routing_failures(), 0);
  }
  for (int sp = 0; sp < 3; ++sp) {
    EXPECT_EQ(fabric.spine(sp)->routing_failures(), 0);
  }
}

TEST(LeafSpineTest, AcdcWorksAcrossTheFabric) {
  exp::LeafSpineConfig cfg;
  cfg.scenario = exp::scenario_config_for(exp::Mode::kAcdc);
  exp::LeafSpine fabric(cfg);
  exp::Scenario& s = fabric.scenario();
  std::vector<host::Host*> hosts;
  for (int l = 0; l < fabric.leaves(); ++l) {
    for (int h = 0; h < fabric.hosts_per_leaf(); ++h) {
      hosts.push_back(fabric.host(l, h));
    }
  }
  auto vswitches = exp::apply_mode(s, hosts, exp::Mode::kAcdc);
  // 4 hosts on leaf0 all send to one host on leaf1: the shared downlink is
  // the bottleneck; AC/DC should keep fairness high and drops at zero.
  std::vector<host::BulkApp*> apps;
  for (int h = 0; h < 4; ++h) {
    apps.push_back(s.add_bulk_flow(fabric.host(0, h), fabric.host(1, 0),
                                   s.tcp_config(tcp::CcId::kCubic),
                                   h * sim::milliseconds(1)));
  }
  s.run_until(sim::seconds(1));
  std::vector<double> g;
  for (auto* a : apps) {
    g.push_back(a->goodput_bps(sim::milliseconds(300), sim::seconds(1)));
  }
  EXPECT_GT(stats::jain_fairness_index(g), 0.95);
  EXPECT_EQ(s.fabric_stats().dropped_packets, 0);
}

// The three hashes that place traffic, pinned at unit scale: the vSwitch
// flow-table hash (every slot), the same-tick delivery tie key (every
// same-timestamp delivery order) and a leaf's ECMP uplink choice. The
// constants were captured from the implementations before they shared
// sim/hash.h; end-to-end digests would catch a change only indirectly.
TEST(LeafSpineTest, SharedHashesKeepTheirValues) {
  const vswitch::FlowKey keys[] = {
      {net::make_ip(10, 0, 0, 1), net::make_ip(10, 0, 0, 2), 40000, 5000},
      {net::make_ip(10, 0, 0, 2), net::make_ip(10, 0, 0, 1), 5000, 40000},
      {net::make_ip(192, 168, 7, 9), net::make_ip(10, 1, 2, 3), 65535, 1},
      {0, 0, 0, 0},
  };
  const std::uint64_t key_hash[] = {
      9113237136666460480ull, 14136739806318123190ull,
      5023060356048792866ull, 10255051314009067241ull};
  for (std::size_t i = 0; i < std::size(keys); ++i) {
    EXPECT_EQ(vswitch::FlowKeyHash{}(keys[i]), key_hash[i]) << i;
  }

  struct TieInput {
    std::uint64_t uid;
    net::IpAddr src, dst;
    net::TcpPort sport, dport;
    std::uint32_t seq, ack;
    std::int64_t payload;
  };
  const TieInput ties[] = {
      {1, net::make_ip(10, 0, 0, 1), net::make_ip(10, 0, 0, 2), 40000, 5000,
       1000, 0, 8960},
      {0, net::make_ip(10, 0, 0, 2), net::make_ip(10, 0, 0, 1), 5000, 40000,
       1, 9961, 0},
      {0xfedcba9876543210ull, net::make_ip(172, 16, 3, 4),
       net::make_ip(10, 9, 8, 7), 7100, 41234, 0xfffffff0u, 0x12345678u, 1448},
  };
  const std::uint64_t tie_key[] = {8047759602985251434ull,
                                   8751384756225761193ull,
                                   8360060208855410552ull};
  for (std::size_t i = 0; i < std::size(ties); ++i) {
    const TieInput& t = ties[i];
    net::Packet p;
    p.uid = t.uid;
    p.ip.src = t.src;
    p.ip.dst = t.dst;
    p.tcp.src_port = t.sport;
    p.tcp.dst_port = t.dport;
    p.tcp.seq = t.seq;
    p.tcp.ack_seq = t.ack;
    p.payload_bytes = t.payload;
    EXPECT_EQ(net::Port::delivery_tie_key(p), tie_key[i]) << i;
  }

  // Five spines, so the pick reads the hash modulo a non-power of two.
  exp::LeafSpineConfig cfg;
  cfg.scenario = exp::scenario_config_for(exp::Mode::kDctcp);
  cfg.spines = 5;
  cfg.hosts_per_leaf = 2;
  exp::LeafSpine fabric(cfg);
  const net::IpAddr src = fabric.host(0, 0)->ip();
  const net::IpAddr dst = fabric.host(1, 1)->ip();
  const net::TcpPort ports[][2] = {
      {40000, 5000}, {40001, 5000}, {40002, 5000}, {5000, 40000},
      {40000, 7100}, {65535, 1},    {1, 65535},    {12345, 80},
  };
  const int uplink[] = {0, 4, 2, 0, 1, 2, 3, 0};
  for (std::size_t i = 0; i < std::size(ports); ++i) {
    net::PacketPtr p = net::make_packet();
    p->ip.src = src;
    p->ip.dst = dst;
    p->tcp.src_port = ports[i][0];
    p->tcp.dst_port = ports[i][1];
    std::vector<std::int64_t> before;
    for (int s = 0; s < fabric.spines(); ++s) {
      before.push_back(fabric.uplink(0, s)->queue().stats().enqueued_packets);
    }
    fabric.leaf(0)->receive(std::move(p));
    int picked = -1;
    for (int s = 0; s < fabric.spines(); ++s) {
      if (fabric.uplink(0, s)->queue().stats().enqueued_packets >
          before[static_cast<std::size_t>(s)]) {
        picked = s;
      }
    }
    EXPECT_EQ(picked, uplink[i]) << i;
  }
}

}  // namespace
}  // namespace acdc
