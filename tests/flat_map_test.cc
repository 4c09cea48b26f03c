// FlatMap (the open-addressed table behind switch routes, host demux and
// listeners, and churn flows) against std::unordered_map: seeded random
// insert/find/erase, with hashes that force every key into one probe run,
// runs that wrap the table end, and erases from the middle of a run (the
// backward-shift case), across growth.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/flat_map.h"
#include "testlib/seed.h"

namespace acdc::sim {
namespace {

// Every key's home is slot 0: one probe run holds the whole table.
struct OneRunHash {
  std::uint64_t operator()(std::uint64_t) const { return 0; }
};

// Every key's home is the last slot, so the run wraps to slot 0.
struct WrapHash {
  std::uint64_t operator()(std::uint64_t) const { return ~std::uint64_t{0}; }
};

// Four homes, each near the end of a quarter of the table (the last one on
// the last slot): runs merge into each other and wrap.
struct FourHomesHash {
  std::uint64_t operator()(std::uint64_t key) const {
    return ((key & 3) << 62) | (std::uint64_t{0x3F} << 56);
  }
};

// Applies `ops` seeded random operations to a FlatMap and a
// std::unordered_map side by side, checking every result and, every few
// operations, every key that has ever been present.
template <typename Hash>
void random_ops(std::uint64_t seed, std::uint64_t key_space, int ops) {
  std::mt19937_64 rng(seed);
  FlatMap<std::uint64_t, std::uint64_t, Hash> map;
  std::unordered_map<std::uint64_t, std::uint64_t> ref;
  for (int op = 0; op < ops; ++op) {
    const std::uint64_t key = rng() % key_space;
    const auto kind = rng() % 10;
    if (kind < 5) {
      const std::uint64_t value = rng();
      map[key] = value;
      ref[key] = value;
    } else if (kind < 8) {
      ASSERT_EQ(map.erase(key), ref.erase(key) == 1) << "op " << op;
    } else {
      const std::uint64_t* found = map.find(key);
      const auto it = ref.find(key);
      ASSERT_EQ(found != nullptr, it != ref.end()) << "op " << op;
      if (found != nullptr) {
        ASSERT_EQ(*found, it->second) << "op " << op;
      }
    }
    ASSERT_EQ(map.size(), ref.size());
    ASSERT_LE(4 * map.size(), 3 * map.capacity());
    if (op % 97 == 0) {
      for (std::uint64_t k = 0; k < key_space; ++k) {
        const std::uint64_t* found = map.find(k);
        const auto it = ref.find(k);
        ASSERT_EQ(found != nullptr, it != ref.end()) << "key " << k;
        if (found != nullptr) {
          ASSERT_EQ(*found, it->second) << "key " << k;
        }
      }
    }
  }
}

TEST(FlatMapTest, RandomOpsMatchUnorderedMap) {
  const std::uint64_t seed = testlib::test_seed(21);
  random_ops<FlatHash>(seed, 64, 20'000);         // dense, small table
  random_ops<FlatHash>(seed + 1, 5'000, 40'000);  // sparse, grows large
}

TEST(FlatMapTest, RandomOpsInOneProbeRun) {
  random_ops<OneRunHash>(testlib::test_seed(22), 48, 6'000);
}

TEST(FlatMapTest, RandomOpsInRunsThatWrapTheTableEnd) {
  random_ops<WrapHash>(testlib::test_seed(23), 48, 6'000);
  random_ops<FourHomesHash>(testlib::test_seed(24), 200, 20'000);
}

TEST(FlatMapTest, EraseFromMidRunShiftsTheRestBack) {
  // Six keys in one run that starts on the last slot and wraps: erasing
  // from the middle must leave every later member findable, and the freed
  // slot reusable.
  FlatMap<std::uint64_t, int, WrapHash> map;
  for (std::uint64_t k = 0; k < 6; ++k) map[k] = static_cast<int>(k);
  ASSERT_EQ(map.capacity(), 8u);
  for (std::uint64_t victim : {2u, 0u, 4u}) {
    ASSERT_TRUE(map.erase(victim));
    EXPECT_EQ(map.find(victim), nullptr);
    EXPECT_FALSE(map.erase(victim));
  }
  for (std::uint64_t k : {1u, 3u, 5u}) {
    ASSERT_NE(map.find(k), nullptr) << k;
    EXPECT_EQ(*map.find(k), static_cast<int>(k));
  }
  // A new key lands in a freed slot and reads value-initialised.
  EXPECT_EQ(map[6], 0);
  map[0] = 10;
  map[2] = 12;
  EXPECT_EQ(map.size(), 6u);
  EXPECT_EQ(*map.find(0), 10);
  EXPECT_EQ(*map.find(2), 12);
  EXPECT_EQ(*map.find(5), 5);
}

TEST(FlatMapTest, GrowsBeforeThreeQuartersAndKeepsEveryEntry) {
  FlatMap<std::uint64_t, std::uint64_t> map;
  EXPECT_EQ(map.capacity(), 0u);  // an empty map allocates nothing
  EXPECT_EQ(map.find(7), nullptr);
  EXPECT_FALSE(map.erase(7));
  std::size_t grows = 0;
  std::size_t capacity = 0;
  for (std::uint64_t k = 0; k < 10'000; ++k) {
    map[k * 7919] = k;
    if (map.capacity() != capacity) {
      ++grows;
      EXPECT_EQ(map.capacity(), capacity == 0 ? 2 : 2 * capacity);
      capacity = map.capacity();
    }
    EXPECT_LE(4 * map.size(), 3 * map.capacity());
  }
  EXPECT_EQ(map.capacity(), 16'384u);
  EXPECT_EQ(grows, 14u);
  for (std::uint64_t k = 0; k < 10'000; ++k) {
    ASSERT_NE(map.find(k * 7919), nullptr);
    EXPECT_EQ(*map.find(k * 7919), k);
  }
}

TEST(FlatMapTest, PointerKeysAndOwningValues) {
  // Values that own memory move with their slots through growth and
  // backward shifts (ASan checks that none leaks or is read after a move).
  std::vector<int> objects(300);
  FlatMap<const int*, std::string> map;
  for (std::size_t i = 0; i < objects.size(); ++i) {
    map[&objects[i]] = std::string(40, static_cast<char>('a' + i % 26));
  }
  for (std::size_t i = 0; i < objects.size(); i += 2) {
    ASSERT_TRUE(map.erase(&objects[i]));
  }
  EXPECT_EQ(map.size(), objects.size() / 2);
  for (std::size_t i = 0; i < objects.size(); ++i) {
    const std::string* value = map.find(&objects[i]);
    if (i % 2 == 0) {
      EXPECT_EQ(value, nullptr);
    } else {
      ASSERT_NE(value, nullptr);
      EXPECT_EQ(*value, std::string(40, static_cast<char>('a' + i % 26)));
    }
  }
  // Re-inserted keys reuse freed slots and read empty.
  for (std::size_t i = 0; i < objects.size(); i += 2) {
    EXPECT_TRUE(map[&objects[i]].empty()) << i;
  }
}

}  // namespace
}  // namespace acdc::sim
