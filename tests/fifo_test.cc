// Fifo (the ring behind TCP send queues, port queues, shapers and the RPC
// frame streams) against std::deque: seeded random push/pop/clear/iterate
// on a move-only payload through growth and wrap-around; no allocation
// before the first push and none given back after a drain; every element
// destroyed exactly once; and a range-for that survives a push growing the
// ring under it, as TCP's go-back-N loop relies on.
#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "sim/fifo.h"
#include "testlib/seed.h"

namespace acdc::sim {
namespace {

bool power_of_two(std::size_t n) { return n != 0 && (n & (n - 1)) == 0; }

// Applies `ops` seeded random operations to a Fifo and a std::deque side by
// side. The mix drifts between push-heavy, balanced and pop-heavy phases,
// so the ring grows, wraps its head around in steady state, and drains.
void random_ops(std::uint64_t seed, int ops) {
  std::mt19937_64 rng(seed);
  Fifo<std::unique_ptr<std::uint64_t>> fifo;
  std::deque<std::uint64_t> ref;
  for (int op = 0; op < ops; ++op) {
    const int push_percent = 70 - 20 * ((op / 500) % 3);  // 70, 50, 30
    const auto roll = static_cast<int>(rng() % 100);
    if (roll == 0) {
      fifo.clear();
      ref.clear();
    } else if (roll <= 5) {
      std::size_t i = 0;
      for (std::unique_ptr<std::uint64_t>& v : fifo) {
        ASSERT_LT(i, ref.size()) << "op " << op;
        ASSERT_EQ(*v, ref[i]) << "op " << op << " position " << i;
        ++i;
      }
      ASSERT_EQ(i, ref.size()) << "op " << op;
    } else if (roll <= push_percent) {
      const std::uint64_t value = rng();
      if (value % 2 == 0) {
        fifo.push_back(std::make_unique<std::uint64_t>(value));
      } else {
        ASSERT_EQ(*fifo.emplace_back(new std::uint64_t(value)), value);
      }
      ref.push_back(value);
    } else if (!ref.empty()) {
      ASSERT_EQ(*fifo.front(), ref.front()) << "op " << op;
      fifo.pop_front();
      ref.pop_front();
    }
    ASSERT_EQ(fifo.size(), ref.size()) << "op " << op;
    ASSERT_EQ(fifo.empty(), ref.empty()) << "op " << op;
    if (!ref.empty()) {
      ASSERT_EQ(*fifo.front(), ref.front()) << "op " << op;
      ASSERT_EQ(*fifo.back(), ref.back()) << "op " << op;
      ASSERT_TRUE(power_of_two(fifo.capacity())) << "op " << op;
      ASSERT_LE(fifo.size(), fifo.capacity()) << "op " << op;
    }
  }
}

TEST(FifoTest, RandomOpsMatchDeque) {
  const std::uint64_t seed = testlib::test_seed(31);
  for (std::uint64_t run = 0; run < 4; ++run) {
    SCOPED_TRACE("seed " + std::to_string(seed + run));
    random_ops(seed + run, 20'000);
  }
}

TEST(FifoTest, AllocatesOnFirstPushAndKeepsItsBufferWhenDrained) {
  Fifo<int> fifo;
  EXPECT_EQ(fifo.capacity(), 0u);
  EXPECT_TRUE(fifo.empty());
  EXPECT_EQ(fifo.begin(), fifo.end());

  fifo.push_back(1);
  EXPECT_GT(fifo.capacity(), 0u);
  for (int i = 2; i <= 100; ++i) fifo.push_back(i);
  const std::size_t grown = fifo.capacity();
  EXPECT_GE(grown, 100u);

  while (!fifo.empty()) fifo.pop_front();
  EXPECT_EQ(fifo.capacity(), grown);
  for (int i = 0; i < 100; ++i) fifo.push_back(i);
  EXPECT_EQ(fifo.capacity(), grown) << "refilling to the old depth regrew";
  fifo.clear();
  EXPECT_TRUE(fifo.empty());
  EXPECT_EQ(fifo.capacity(), grown);
}

// A move-only payload that counts its objects, moved-from shells included,
// and every destruction of a live value under its id.
struct Tracked {
  static inline int objects = 0;
  static inline std::vector<int> destroyed;  // by id

  explicit Tracked(int value) : id(value) { ++objects; }
  Tracked(Tracked&& other) noexcept : id(std::exchange(other.id, -1)) {
    ++objects;
  }
  Tracked(const Tracked&) = delete;
  Tracked& operator=(const Tracked&) = delete;
  Tracked& operator=(Tracked&&) = delete;
  ~Tracked() {
    --objects;
    if (id >= 0) ++destroyed[static_cast<std::size_t>(id)];
  }

  int id;  // -1 once moved from
};

TEST(FifoTest, DestroysEveryElementExactlyOnce) {
  constexpr int kIds = 1000;
  Tracked::objects = 0;
  Tracked::destroyed.assign(kIds, 0);
  {
    Fifo<Tracked> fifo;
    int next = 0;
    // Grow through several doublings, pop part of it so the head moves
    // off slot 0, clear, then refill past a wrapped head and leave the
    // rest for the destructor.
    for (; next < 300; ++next) fifo.emplace_back(next);
    for (int i = 0; i < 100; ++i) fifo.pop_front();
    for (; next < 600; ++next) fifo.emplace_back(next);
    fifo.clear();
    EXPECT_EQ(Tracked::objects, 0);
    for (; next < 900; ++next) {
      fifo.emplace_back(next);
      if (next % 3 == 0) fifo.pop_front();
    }
    for (; next < kIds; ++next) fifo.push_back(Tracked(next));
    EXPECT_EQ(static_cast<int>(fifo.size()), Tracked::objects);
  }
  EXPECT_EQ(Tracked::objects, 0);
  for (int id = 0; id < kIds; ++id) {
    EXPECT_EQ(Tracked::destroyed[static_cast<std::size_t>(id)], 1)
        << "id " << id;
  }
}

// TCP's go-back-N loop sends from inside a range-for over its send queue,
// and a send can re-enter the stack and push onto that queue. A push that
// grows the ring moves every element; the loop must keep writing into the
// live buffer and must not visit the pushed element.
TEST(FifoTest, PushGrowingTheRingDuringRangeForKeepsTheLoopValid) {
  Fifo<int> fifo;
  fifo.push_back(0);
  fifo.push_back(0);
  fifo.pop_front();
  fifo.pop_front();  // the head leaves slot 0, so the full ring wraps
  std::vector<int> expected;
  while (fifo.size() < fifo.capacity()) {
    expected.push_back(static_cast<int>(expected.size()) + 1);
    fifo.push_back(expected.back());
  }
  const std::size_t capacity = fifo.capacity();

  std::vector<int> visited;
  for (int& v : fifo) {
    visited.push_back(v);
    v = -v;
    // Grows the ring and moves every element: `v` dangles from here on,
    // as `seg` does after send_segment().
    if (visited.size() == 1) fifo.push_back(100);
  }
  EXPECT_GT(fifo.capacity(), capacity);
  EXPECT_EQ(visited, expected);
  std::vector<int> after;
  for (int v : fifo) after.push_back(v);
  for (int& v : expected) v = -v;
  expected.push_back(100);
  EXPECT_EQ(after, expected);
}

}  // namespace
}  // namespace acdc::sim
