// Open-addressed hash map for the small tables on the per-hop and
// per-connection paths: switch routes, host demux and listeners, churn
// flows. Linear probing over one power-of-two array of {key, value} slots
// plus one occupancy bit per slot, with backward-shift deletion, so there
// are no tombstones and a lookup stops at the first free slot. Keys are
// integers or pointers; a key's home slot is the top bits of its hash, so
// the default Fibonacci hash (the key times 2^64 / phi) depends on every key
// bit. The table doubles (from 2 slots) before it passes 3/4 full and never
// shrinks; an empty map allocates nothing. There is no iteration, so slot
// order is invisible: every lookup returns what std::unordered_map would.
//
// A pointer from find() or operator[] stays valid only until the next
// insertion or erase on the same map: either may move slots.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

namespace acdc::sim {

struct FlatHash {
  template <typename K>
  std::uint64_t operator()(K key) const {
    std::uint64_t bits;
    if constexpr (std::is_pointer_v<K>) {
      bits = reinterpret_cast<std::uintptr_t>(key);
    } else {
      bits = static_cast<std::uint64_t>(key);
    }
    return bits * 0x9E3779B97F4A7C15ull;
  }
};

template <typename K, typename V, typename Hash = FlatHash>
class FlatMap {
 public:
  std::size_t size() const { return size_; }
  std::size_t capacity() const { return slots_.size(); }

  V* find(K key) {
    if (size_ == 0) return nullptr;
    const std::size_t i = index_of(key);
    return i == kAbsent ? nullptr : &slots_[i].value;
  }

  // The value under `key`, value-initialised when the key was absent.
  V& operator[](K key) {
    if (V* value = find(key)) return *value;
    if (4 * (size_ + 1) > 3 * capacity()) grow();
    Slot& slot = slots_[claim(key)];
    slot.key = key;
    ++size_;
    return slot.value;
  }

  // Removes `key`; false when it was absent. Later members of its probe run
  // shift back over the hole, so no run ever has a gap.
  bool erase(K key) {
    if (size_ == 0) return false;
    std::size_t hole = index_of(key);
    if (hole == kAbsent) return false;
    for (std::size_t j = next(hole); used(j); j = next(j)) {
      // Slot j may fill the hole only if the hole lies on its probe path,
      // i.e. no further from j than j's home is.
      if (((j - home(slots_[j].key)) & mask_) >= ((j - hole) & mask_)) {
        slots_[hole] = std::move(slots_[j]);
        hole = j;
      }
    }
    slots_[hole].value = V{};
    used_[hole / 64] &= ~(std::uint64_t{1} << (hole % 64));
    --size_;
    return true;
  }

 private:
  static constexpr std::size_t kAbsent = ~std::size_t{0};
  // Most tables hold one to a few entries (a host's listeners, a leaf's
  // routes), so they start small and grow.
  static constexpr std::size_t kMinCapacity = 2;

  // A free slot's value is value-initialised: grow() builds fresh slots
  // and erase() resets the one it frees.
  struct Slot {
    K key{};
    V value{};
  };

  std::size_t home(K key) const {
    return static_cast<std::size_t>(Hash{}(key) >> shift_);
  }
  std::size_t next(std::size_t i) const { return (i + 1) & mask_; }
  bool used(std::size_t i) const { return (used_[i / 64] >> (i % 64)) & 1; }

  std::size_t index_of(K key) const {
    for (std::size_t i = home(key); used(i); i = next(i)) {
      if (slots_[i].key == key) return i;
    }
    return kAbsent;
  }

  // Marks and returns the first free slot of `key`'s probe run.
  std::size_t claim(K key) {
    std::size_t i = home(key);
    while (used(i)) i = next(i);
    used_[i / 64] |= std::uint64_t{1} << (i % 64);
    return i;
  }

  void grow() {
    const std::size_t capacity =
        slots_.empty() ? kMinCapacity : 2 * slots_.size();
    std::vector<Slot> old = std::exchange(slots_, std::vector<Slot>(capacity));
    const std::vector<std::uint64_t> old_used = std::exchange(
        used_, std::vector<std::uint64_t>((capacity + 63) / 64));
    mask_ = capacity - 1;
    shift_ = 64 - std::countr_zero(capacity);
    for (std::size_t i = 0; i < old.size(); ++i) {
      if ((old_used[i / 64] >> (i % 64)) & 1) {
        slots_[claim(old[i].key)] = std::move(old[i]);
      }
    }
  }

  std::vector<Slot> slots_;
  std::vector<std::uint64_t> used_;  // bit per slot
  std::size_t size_ = 0;
  std::size_t mask_ = 0;
  int shift_ = 64;
};

}  // namespace acdc::sim
