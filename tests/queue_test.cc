// Queue/AQM/shared-buffer tests: drop-tail semantics, DCTCP-style step
// marking, the ECT/non-ECT asymmetry behind Figs. 15/16, and the
// dynamic-threshold shared buffer of the switch.
#include <gtest/gtest.h>

#include "net/packet.h"
#include "net/queue.h"

namespace acdc::net {
namespace {

PacketPtr make_data(std::int64_t payload, Ecn ecn = Ecn::kNotEct) {
  auto p = make_packet();
  p->payload_bytes = payload;
  p->ip.ecn = ecn;
  return p;
}

TEST(DropTailQueueTest, FifoAndByteAccounting) {
  Queue q(1 << 20);
  auto a = make_data(1000);
  a->tcp.seq = 1;
  auto b = make_data(2000);
  b->tcp.seq = 2;
  const std::int64_t wire_a = a->wire_bytes();
  const std::int64_t wire_b = b->wire_bytes();
  EXPECT_TRUE(q.enqueue(std::move(a)));
  EXPECT_TRUE(q.enqueue(std::move(b)));
  EXPECT_EQ(q.byte_length(), wire_a + wire_b);
  EXPECT_EQ(q.packet_length(), 2u);
  auto first = q.dequeue();
  EXPECT_EQ(first->tcp.seq, 1u);
  EXPECT_EQ(q.byte_length(), wire_b);
  auto second = q.dequeue();
  EXPECT_EQ(second->tcp.seq, 2u);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.dequeue(), nullptr);
}

TEST(DropTailQueueTest, DropsWhenFull) {
  Queue q(3000);
  EXPECT_TRUE(q.enqueue(make_data(1500)));
  EXPECT_FALSE(q.enqueue(make_data(1500)));  // 2nd exceeds 3000 wire bytes
  EXPECT_EQ(q.stats().dropped_packets, 1);
  EXPECT_GT(q.stats().dropped_bytes, 0);
  EXPECT_GT(q.stats().drop_rate(), 0.0);
}

TEST(RedQueueTest, StepMarksEctAboveThreshold) {
  Queue q(1 << 20, 10'000);
  // Fill below the threshold: no marks.
  ASSERT_TRUE(q.enqueue(make_data(6'000, Ecn::kEct0)));
  ASSERT_TRUE(q.enqueue(make_data(6'000, Ecn::kEct0)));
  EXPECT_EQ(q.stats().marked_packets, 0);
  // Next packet arrives with queue above K: marked CE.
  ASSERT_TRUE(q.enqueue(make_data(1'000, Ecn::kEct0)));
  EXPECT_EQ(q.stats().marked_packets, 1);
  q.dequeue();
  q.dequeue();
  auto marked = q.dequeue();
  EXPECT_EQ(marked->ip.ecn, Ecn::kCe);
}

TEST(RedQueueTest, DropsNonEctAboveThreshold) {
  // The ECN-coexistence hazard: non-ECT packets are dropped where ECT ones
  // would only be marked (§5.1, Fig. 15).
  Queue q(1 << 20, 10'000);
  ASSERT_TRUE(q.enqueue(make_data(6'000, Ecn::kNotEct)));
  ASSERT_TRUE(q.enqueue(make_data(6'000, Ecn::kNotEct)));
  EXPECT_FALSE(q.enqueue(make_data(1'000, Ecn::kNotEct)));
  EXPECT_EQ(q.stats().dropped_packets, 1);
  EXPECT_EQ(q.stats().marked_packets, 0);
}

TEST(RedQueueTest, CeStaysCe) {
  Queue q(1 << 20, 1'000);
  ASSERT_TRUE(q.enqueue(make_data(2'000, Ecn::kCe)));
  ASSERT_TRUE(q.enqueue(make_data(2'000, Ecn::kCe)));
  auto p = q.dequeue();
  EXPECT_EQ(p->ip.ecn, Ecn::kCe);
}

TEST(RedQueueTest, HardCapacityStillDrops) {
  Queue q(5'000, 100'000);
  ASSERT_TRUE(q.enqueue(make_data(4'000, Ecn::kEct0)));
  EXPECT_FALSE(q.enqueue(make_data(4'000, Ecn::kEct0)));
}

TEST(SharedBufferPoolTest, DynamicThreshold) {
  // A queue may grow while it holds less than the free buffer.
  SharedBufferPool pool(100'000);
  EXPECT_TRUE(pool.admit(0, 1'000));
  pool.on_enqueue(60'000);
  // Queue holding all 60K wants more: 60'000 < 100'000 - 60'000? No.
  EXPECT_FALSE(pool.admit(60'000, 1'000));
  // A fresh queue can still get some.
  EXPECT_TRUE(pool.admit(0, 1'000));
  pool.on_dequeue(60'000);
  EXPECT_TRUE(pool.admit(60'000, 1'000));
}

TEST(SharedBufferPoolTest, HardCapacity) {
  SharedBufferPool pool(10'000);
  pool.on_enqueue(9'500);
  EXPECT_FALSE(pool.admit(0, 1'000));  // would exceed capacity
}

TEST(SharedBufferPoolTest, QueueDequeueUpdatesPool) {
  SharedBufferPool pool(1 << 20);
  Queue q(1 << 20);
  q.set_shared_pool(&pool);
  ASSERT_TRUE(q.enqueue(make_data(1'000)));
  EXPECT_GT(pool.used_bytes(), 0);
  q.dequeue();
  EXPECT_EQ(pool.used_bytes(), 0);
}

TEST(PacketTest, SizesIncludeHeadersAndFraming) {
  auto p = make_data(1000);
  EXPECT_EQ(p->header_bytes(), 40);
  EXPECT_EQ(p->size_bytes(), 1040);
  EXPECT_EQ(p->wire_bytes(), 1040 + kEthernetOverheadBytes);
  p->tcp.options.acdc = AcdcFeedback{1, 1};
  EXPECT_EQ(p->header_bytes(), 52);
}

TEST(PacketTest, PureAckDetection) {
  Packet p;
  p.tcp.flags.ack = true;
  EXPECT_TRUE(p.is_pure_ack());
  p.payload_bytes = 10;
  EXPECT_FALSE(p.is_pure_ack());
  p.payload_bytes = 0;
  p.tcp.flags.syn = true;
  EXPECT_FALSE(p.is_pure_ack());
}

}  // namespace
}  // namespace acdc::net
