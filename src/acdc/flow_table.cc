#include "acdc/flow_table.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <new>
#include <type_traits>

namespace acdc::vswitch {

namespace {

std::size_t next_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

std::uint32_t FlowTable::lookup_slot(const FlowKey& key,
                                     std::uint32_t h) const {
  if (capacity_ == 0) return kNil;
  std::uint32_t slot = h & mask_;
  for (;;) {
    const SlotWord w = slots_[slot];
    if (w.ref == 0) return kNil;
    if (w.hash == h && hot_[w.ref - 1].key == key) return slot;
    slot = (slot + 1) & mask_;
  }
}

std::uint32_t FlowTable::insert_slot(std::uint32_t h) const {
  std::uint32_t slot = h & mask_;
  while (slots_[slot].ref != 0) slot = (slot + 1) & mask_;
  return slot;
}

std::uint32_t FlowTable::slot_of(std::uint32_t r) const {
  std::uint32_t slot = hash_key(hot_[r].key) & mask_;
  while (slots_[slot].ref != r + 1) slot = (slot + 1) & mask_;
  return slot;
}

FlowRef FlowTable::find(const FlowKey& key) {
  ++stats_.lookups;
  const std::uint32_t slot = lookup_slot(key, hash_key(key));
  if (slot == kNil) return {};
  ++stats_.hits;
  return ref_at(slot, false);
}

FlowRef FlowTable::find_or_create(const FlowKey& key, sim::Time now) {
  ++stats_.lookups;
  const std::uint32_t h = hash_key(key);
  std::uint32_t slot = lookup_slot(key, h);
  if (slot != kNil) {
    ++stats_.hits;
    return ref_at(slot, false);
  }
  if (max_entries_ != 0 && size_ >= max_entries_) {
    erase_slot(slot_of(lru_head_));
    ++stats_.evictions;
    ++stats_.removals;
  }
  ensure_insert_capacity();
  slot = insert_slot(h);
  occupy(slot, key, h, now);
  ++stats_.inserts;
  return ref_at(slot, true);
}

FlowRef FlowTable::deref(FlowHandle h) {
  if (h.gen == 0 || h.slot >= capacity_) return {};
  const std::uint32_t ref = slots_[h.slot].ref;
  if (ref == 0 || hot_[ref - 1].gen != h.gen) return {};
  return ref_at(h.slot, false);
}

bool FlowTable::erase(const FlowKey& key) {
  const std::uint32_t slot = lookup_slot(key, hash_key(key));
  if (slot == kNil) return false;
  erase_slot(slot);
  ++stats_.removals;
  return true;
}

void FlowTable::touch(const FlowRef& ref, sim::Time now) {
  assert(ref.hot != nullptr);
  // A same-tick re-touch keeps its list position: entries with equal
  // activity stamps have no defined idle order anyway, and skipping the
  // relink spares two random-line writes per packet on the hot path (every
  // back-to-back packet of a burst lands in the same tick).
  if (ref.hot->last_activity == now) return;
  ref.hot->last_activity = now;
  const auto r = static_cast<std::uint32_t>(ref.hot - hot_.data());
  if (r == lru_tail_) return;  // already most recent
  lru_unlink(r);
  lru_push_back(r);
}

void FlowTable::prefetch(const FlowKey& key) const {
#if defined(__GNUC__) || defined(__clang__)
  if (capacity_ == 0) return;
  const std::uint32_t h = hash_key(key);
  std::uint32_t slot = h & mask_;
  // Resolve the probable slot on the slot words (warmed by the earlier
  // prefetch_probe stage) before warming the record: a hash match is
  // almost certainly where the lookup ends, and an empty word is where the
  // probe stops — an absent key, whose insert takes a pool record, not
  // one at this slot. Warming from the home slot's word instead would miss
  // every off-home entry, which is a third of lookups at high load. The
  // walk is capped so a pathological chain costs bounded prefetch work.
  for (int probes = 0; probes < 32; ++probes) {
    const SlotWord w = slots_[slot];
    if (w.ref == 0) return;
    if (w.hash == h) {
      // Warm the record's first three lines: the two the universal
      // per-packet path is budgeted into (flow_state.h) — probe identity
      // included, since the key and generation share line one with the
      // bookkeeping — plus the per-window line, because an ACK that lands
      // on a window boundary reads alpha and beta and a boundary can
      // arrive on any packet. All three sit inside one 256-byte record, so
      // a single page translation covers them. Asked for in exclusive
      // state because the path writes them. The fourth line is
      // CUBIC/PowerTCP aux state — flows running those fault it per ACK
      // rather than taxing every flow with a fourth prefetch line.
      const char* s = reinterpret_cast<const char*>(&hot_[w.ref - 1]);
      __builtin_prefetch(s, 1);
      __builtin_prefetch(s + 64, 1);
      __builtin_prefetch(s + 128, 1);
      return;
    }
    slot = (slot + 1) & mask_;
  }
#else
  (void)key;
#endif
}

void FlowTable::prefetch_probe(const FlowKey& key) const {
#if defined(__GNUC__) || defined(__clang__)
  if (capacity_ == 0) return;
  __builtin_prefetch(&slots_[hash_key(key) & mask_]);
#else
  (void)key;
#endif
}

void FlowTable::set_limit(std::size_t max_entries) {
  max_entries_ = max_entries;
  // Pre-size a bounded table so steady state at the cap never rehashes:
  // with back-shift deletion keeping chains tombstone-free, eviction churn
  // at the cap runs at a fixed capacity forever.
  if (max_entries_ != 0) reserve_for(max_entries_);
}

std::size_t FlowTable::collect_garbage(sim::Time now, sim::Time idle_timeout,
                                       sim::Time fin_linger) {
  std::size_t removed = 0;
  for (std::uint32_t slot = 0; slot < capacity_;) {
    // The slot word, not the record, says whether a slot is live, so a
    // sweep over a sparse table reads 8 bytes per empty slot and no record.
    const std::uint32_t ref = slots_[slot].ref;
    if (ref == 0) {
      ++slot;
      continue;
    }
    const FlowHot& hot = hot_[ref - 1];
    const sim::Time idle = now - hot.last_activity;
    const bool expired =
        (hot.fin_seen && idle > fin_linger) || idle > idle_timeout;
    if (!expired) {
      ++slot;
      continue;
    }
    // Deletion may back-shift a later entry into this slot; re-examine it
    // before advancing so a shifted-in expired entry is swept this pass.
    // (A wrap-around shift can still move an unvisited entry behind the
    // cursor — it survives until the next GC interval, which is harmless.)
    erase_slot(slot);
    ++removed;
  }
  stats_.gc_removed += static_cast<std::int64_t>(removed);
  stats_.removals += static_cast<std::int64_t>(removed);
  return removed;
}

FlowRef FlowTable::oldest() {
  if (lru_head_ == kNil) return {};
  return ref_at(slot_of(lru_head_), false);
}

void FlowTable::occupy(std::uint32_t slot, const FlowKey& key,
                       std::uint32_t h, sim::Time now) {
  const std::uint32_t r = alloc_record();
  slots_[slot] = SlotWord{h, r + 1};
  // Placement-new: the pools are raw storage (table_array.h) and a freed
  // record holds its last flow's bytes. Identity is stamped after
  // construction — the fresh record zeroes it.
  FlowHot* hot = new (&hot_[r]) FlowHot{};
  hot->key = key;
  hot->gen = next_gen_++;
  if (next_gen_ == 0) next_gen_ = 1;  // keep 0 = invalid after u32 wrap
  hot->last_activity = now;
  FlowCold* cold = new (&cold_[r]) FlowCold{};
  cold->created_at = now;
  lru_push_back(r);
  ++size_;
}

void FlowTable::erase_slot(std::uint32_t slot) {
  const std::uint32_t r = slots_[slot].ref - 1;
  lru_unlink(r);
  free_record(r);
  --size_;
  // Backward-shift deletion: instead of leaving a tombstone, walk the probe
  // chain after the hole and pull back every word whose home slot the hole
  // cyclically covers, so no chain ever carries dead slots. This is what
  // keeps eviction-heavy regimes fast: a bounded table at its cap erases on
  // every admission, and tombstones would both stretch every miss probe
  // (a new flow's lookup only stops at a genuinely empty slot) and force
  // periodic cleanup rehashes. Only 8-byte words move, and each word
  // carries its home slot in its hash bits; records stay where they are.
  std::uint32_t hole = slot;
  std::uint32_t j = (slot + 1) & mask_;
  while (slots_[j].ref != 0) {
    const std::uint32_t home = slots_[j].hash & mask_;
    // Move when the hole lies cyclically in [home, j): the entry stays
    // findable (its probe chain still reaches it) and moves closer to home.
    if (((hole - home) & mask_) < ((j - home) & mask_)) {
      slots_[hole] = slots_[j];
      hole = j;
    }
    j = (j + 1) & mask_;
  }
  slots_[hole] = SlotWord{};
}

void FlowTable::ensure_insert_capacity() {
  if ((size_ + 1) * 8 <= static_cast<std::size_t>(capacity_) * 7) return;
  rehash(capacity_ == 0 ? kMinCapacity
                        : static_cast<std::size_t>(capacity_) * 2);
}

void FlowTable::reserve_for(std::size_t entries) {
  // Smallest power of two keeping `entries` live flows under the 7/8 bound.
  std::size_t want = next_pow2(entries + entries / 7 + 1);
  if (want < kMinCapacity) want = kMinCapacity;
  if (want > capacity_) rehash(want);
}

void FlowTable::rehash(std::size_t new_capacity) {
  assert((new_capacity & (new_capacity - 1)) == 0);
  const std::uint32_t old_capacity = capacity_;
  capacity_ = static_cast<std::uint32_t>(new_capacity);
  mask_ = capacity_ - 1;
  // A fresh index is all zeros, i.e. empty, with nothing written.
  slots_ = TableArray<SlotWord>(capacity_);
  // Re-insert in LRU order: the slots a rehash picks follow from it.
  // Records do not move and keep their generations: a handle issued before
  // the rehash now names a slot whose word is empty or names some flow's
  // record, and only its own flow's never-reused generation validates —
  // otherwise the holder falls back to a keyed probe.
  for (std::uint32_t r = lru_head_; r != kNil; r = hot_[r].lru_next) {
    const std::uint32_t h = hash_key(hot_[r].key);
    slots_[insert_slot(h)] = SlotWord{h, r + 1};
  }
  if (old_capacity != 0) ++stats_.rehashes;
}

std::uint32_t FlowTable::alloc_record() {
  if (free_head_ != kNil) {
    const std::uint32_t r = free_head_;
    free_head_ = hot_[r].lru_next;
    return r;
  }
  if (pool_used_ == pool_size_) grow_pools();
  return pool_used_++;
}

void FlowTable::free_record(std::uint32_t r) {
  hot_[r].lru_next = free_head_;
  free_head_ = r;
}

void FlowTable::grow_pools() {
  static_assert(std::is_trivially_copyable_v<FlowHot> &&
                    std::is_trivially_copyable_v<FlowCold>,
                "records move to a grown pool by memcpy");
  std::size_t want =
      pool_size_ == 0 ? kMinPool : static_cast<std::size_t>(pool_size_) * 2;
  if (max_entries_ != 0) {
    want = std::max(std::min(want, max_entries_),
                    static_cast<std::size_t>(pool_used_) + 1);
  }
  TableArray<FlowHot> hot(want);
  TableArray<FlowCold> cold(want);
  if (pool_used_ != 0) {
    std::memcpy(hot.data(), hot_.data(), pool_used_ * sizeof(FlowHot));
    std::memcpy(cold.data(), cold_.data(), pool_used_ * sizeof(FlowCold));
  }
  hot_ = std::move(hot);
  cold_ = std::move(cold);
  pool_size_ = static_cast<std::uint32_t>(want);
}

void FlowTable::lru_unlink(std::uint32_t r) {
  const std::uint32_t prev = hot_[r].lru_prev;
  const std::uint32_t next = hot_[r].lru_next;
  if (prev != kNil) {
    hot_[prev].lru_next = next;
  } else {
    lru_head_ = next;
  }
  if (next != kNil) {
    hot_[next].lru_prev = prev;
  } else {
    lru_tail_ = prev;
  }
}

void FlowTable::lru_push_back(std::uint32_t r) {
  hot_[r].lru_prev = lru_tail_;
  hot_[r].lru_next = kNil;
  if (lru_tail_ != kNil) {
    hot_[lru_tail_].lru_next = r;
  } else {
    lru_head_ = r;
  }
  lru_tail_ = r;
}

}  // namespace acdc::vswitch
