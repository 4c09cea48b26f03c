// Packet-pool recycling tests: a recycled packet must come back in the
// default-constructed state (no leaked ECN bits, TCP options, flags or
// bookkeeping), pooling must be observable through PacketPool::stats(),
// and every packet must come back to the pool: dropped by a port with no
// peer, or still in flight when its scenario is torn down.
#include <gtest/gtest.h>

#include "exp/dumbbell.h"
#include "net/packet.h"
#include "net/packet_pool.h"
#include "net/port.h"
#include "net/queue.h"

namespace acdc::net {
namespace {

// Scribble over every field a datapath run can touch.
void dirty(Packet& p) {
  p.ip.src = make_ip(10, 0, 0, 1);
  p.ip.dst = make_ip(10, 0, 0, 2);
  p.ip.ttl = 3;
  p.ip.dscp = 46;
  p.ip.ecn = Ecn::kCe;
  p.ip.id = 777;
  p.tcp.src_port = 40'000;
  p.tcp.dst_port = 80;
  p.tcp.seq = 123'456;
  p.tcp.ack_seq = 654'321;
  p.tcp.flags.syn = true;
  p.tcp.flags.ack = true;
  p.tcp.flags.ece = true;
  p.tcp.flags.cwr = true;
  p.tcp.window_raw = 999;
  p.tcp.reserved_vm_ecn = true;
  p.tcp.options.mss = 1448;
  p.tcp.options.window_scale = 9;
  p.tcp.options.sack_permitted = true;
  p.tcp.options.sack.push_back({100, 200});
  p.tcp.options.sack.push_back({300, 400});
  p.tcp.options.acdc = AcdcFeedback{5000, 1000};
  p.payload_bytes = 8960;
  p.acdc_fack = true;
  p.uid = 42;
  p.enqueued_at = 1'000'000;
}

TEST(PacketPoolTest, RecycledPacketIsPristine) {
  PacketPool& pool = PacketPool::instance();
  if (!pool.enabled()) GTEST_SKIP() << "ACDC_PACKET_POOL=0";
  pool.trim();

  PacketPtr p = make_packet();
  Packet* addr = p.get();
  dirty(*p);
  p.reset();  // releases to the pool
  EXPECT_EQ(pool.free_count(), 1u);

  PacketPtr q = make_packet();
  ASSERT_EQ(q.get(), addr) << "expected freelist reuse";
  const Packet fresh;
  // Header + ECN bits.
  EXPECT_EQ(q->ip.src, fresh.ip.src);
  EXPECT_EQ(q->ip.ttl, fresh.ip.ttl);
  EXPECT_EQ(q->ip.dscp, fresh.ip.dscp);
  EXPECT_EQ(q->ip.ecn, Ecn::kNotEct);
  EXPECT_EQ(q->ip.id, 0);
  // TCP header, flags, options.
  EXPECT_EQ(q->tcp.seq, 0u);
  EXPECT_EQ(q->tcp.ack_seq, 0u);
  EXPECT_EQ(q->tcp.flags, TcpFlags{});
  EXPECT_EQ(q->tcp.window_raw, 0);
  EXPECT_FALSE(q->tcp.reserved_vm_ecn);
  EXPECT_FALSE(q->tcp.options.mss.has_value());
  EXPECT_FALSE(q->tcp.options.window_scale.has_value());
  EXPECT_FALSE(q->tcp.options.sack_permitted);
  EXPECT_TRUE(q->tcp.options.sack.empty());
  EXPECT_FALSE(q->tcp.options.acdc.has_value());
  // Bookkeeping.
  EXPECT_EQ(q->payload_bytes, 0);
  EXPECT_FALSE(q->acdc_fack);
  EXPECT_EQ(q->uid, 0u);
  EXPECT_EQ(q->enqueued_at, 0);
}

TEST(PacketPoolTest, SteadyStateReusesInsteadOfAllocating) {
  PacketPool& pool = PacketPool::instance();
  if (!pool.enabled()) GTEST_SKIP() << "ACDC_PACKET_POOL=0";
  pool.trim();
  { PacketPtr warm = make_packet(); }  // seed the freelist

  const auto before = pool.stats();
  for (int i = 0; i < 1000; ++i) {
    PacketPtr p = make_packet();
    dirty(*p);
  }
  const auto after = pool.stats();
  EXPECT_EQ(after.fresh_allocs, before.fresh_allocs);
  EXPECT_EQ(after.reuses - before.reuses, 1000);
  EXPECT_EQ(after.releases - before.releases, 1000);
}

TEST(PacketPoolTest, ClonePreservesContentAndReturnsPooledPacket) {
  Packet original;
  dirty(original);
  PacketPtr copy = clone_packet(original);
  EXPECT_EQ(copy->tcp.options.sack, original.tcp.options.sack);
  EXPECT_EQ(copy->tcp.seq, original.tcp.seq);
  EXPECT_EQ(copy->ip.ecn, Ecn::kCe);
  EXPECT_EQ(copy->payload_bytes, 8960);
}

// Builds a 2-pair dumbbell, runs two bulk flows for 5 ms and tears it down
// mid-transfer; returns how many of this thread's pooled packets stay
// live. Each variant leaves packets inside unfired events: a port's local
// delivery (serial), drained cross-shard mail (2 shards on this thread)
// and a fault injector's jittered delivery.
std::int64_t packets_left_after_teardown(int shards, double jitter_p) {
  const std::int64_t before = PacketPool::instance().live();
  {
    exp::DumbbellConfig dc;
    dc.pairs = 2;
    dc.scenario.link_faults.jitter_p = jitter_p;
    dc.scenario.link_faults.jitter_max = sim::microseconds(50);
    exp::Dumbbell bell(dc);
    exp::Scenario& s = bell.scenario();
    if (shards > 1) {
      const exp::PartitionReport rep =
          s.enable_parallel({.shards = shards, .threads = 1});
      EXPECT_TRUE(rep.parallel) << rep.fallback_reason;
    }
    const tcp::TcpConfig tcp = s.tcp_config(tcp::CcId::kCubic);
    for (int i = 0; i < bell.pairs(); ++i) {
      s.add_bulk_flow(bell.sender(i), bell.receiver(i), tcp, 0);
    }
    s.run_until(sim::milliseconds(5));
    EXPECT_GT(PacketPool::instance().live(), before);  // still in flight
  }
  return PacketPool::instance().live() - before;
}

TEST(PacketPoolTest, TeardownReturnsLocalDeliveries) {
  EXPECT_EQ(packets_left_after_teardown(1, 0.0), 0);
}

TEST(PacketPoolTest, TeardownReturnsDrainedMail) {
  EXPECT_EQ(packets_left_after_teardown(2, 0.0), 0);
}

TEST(PacketPoolTest, TeardownReturnsJitteredPackets) {
  EXPECT_EQ(packets_left_after_teardown(1, 1.0), 0);
}

TEST(PacketPoolTest, PeerlessPortReturnsPacketsToThePool) {
  const std::int64_t before = PacketPool::instance().live();
  sim::Simulator sim;
  Port port(&sim, "open", sim::gigabits_per_second(10), 1000, 100'000);
  for (int i = 0; i < 3; ++i) port.send(make_packet());
  sim.run();
  EXPECT_EQ(PacketPool::instance().live(), before);
}

}  // namespace
}  // namespace acdc::net
