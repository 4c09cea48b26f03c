#include "acdc/flow_table.h"

#include <cassert>
#include <cstring>
#include <new>
#include <utility>

namespace acdc::vswitch {

namespace {

std::size_t next_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

std::uint32_t FlowTable::lookup_slot(const FlowKey& key) const {
  if (capacity_ == 0) return kNil;
  const std::uint64_t h = hash_key(key);
  const std::uint8_t tag = tag_of(h);
  std::uint32_t slot = home_slot(h);
  for (;;) {
    const std::uint8_t c = ctrl_[slot];
    if (c == tag && hot_[slot].key == key) return slot;
    if (c == kCtrlEmpty) return kNil;
    slot = (slot + 1) & mask_;
  }
}

std::uint32_t FlowTable::insert_slot(const FlowKey& key) const {
  const std::uint64_t h = hash_key(key);
  std::uint32_t slot = home_slot(h);
  while (ctrl_[slot] != kCtrlEmpty) slot = (slot + 1) & mask_;
  return slot;
}

FlowRef FlowTable::find(const FlowKey& key) {
  ++stats_.lookups;
  const std::uint32_t slot = lookup_slot(key);
  if (slot == kNil) return {};
  ++stats_.hits;
  return ref_at(slot, false);
}

FlowRef FlowTable::find_or_create(const FlowKey& key, sim::Time now) {
  ++stats_.lookups;
  std::uint32_t slot = lookup_slot(key);
  if (slot != kNil) {
    ++stats_.hits;
    return ref_at(slot, false);
  }
  if (max_entries_ != 0 && size_ >= max_entries_) {
    erase_slot(lru_head_);
    ++stats_.evictions;
    ++stats_.removals;
  }
  ensure_insert_capacity();
  slot = insert_slot(key);
  occupy(slot, key, now);
  ++stats_.inserts;
  return ref_at(slot, true);
}

FlowRef FlowTable::deref(FlowHandle h) {
  if (h.gen == 0 || h.slot >= capacity_ || hot_[h.slot].gen != h.gen) {
    return {};
  }
  return ref_at(h.slot, false);
}

bool FlowTable::erase(const FlowKey& key) {
  const std::uint32_t slot = lookup_slot(key);
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
  const std::uint32_t slot = ref.handle.slot;
  if (slot == lru_tail_) return;  // already most recent
  lru_unlink(slot);
  lru_push_back(slot);
}

void FlowTable::prefetch(const FlowKey& key) const {
#if defined(__GNUC__) || defined(__clang__)
  if (capacity_ == 0) return;
  const std::uint64_t h = hash_key(key);
  const std::uint8_t tag = tag_of(h);
  std::uint32_t slot = home_slot(h);
  // Resolve the probable slot on the ctrl bytes (warmed by the earlier
  // prefetch_probe stage) before warming anything per-slot: a tag match is
  // almost certainly where the lookup ends, and an empty byte is where the
  // probe stops (and where find_or_create inserts — deletion back-shifts
  // chains instead of leaving tombstones, so an empty byte always ends a
  // chain). Warming the home slot instead would miss every off-home entry,
  // which is a third of lookups at high load. The walk is capped so a
  // pathological chain costs bounded prefetch work.
  for (int probes = 0; probes < 32; ++probes) {
    const std::uint8_t c = ctrl_[slot];
    if (c == tag || c == kCtrlEmpty) break;
    slot = (slot + 1) & mask_;
  }
  // Warm the record's first three lines: the two the universal per-packet
  // path is budgeted into (flow_state.h) — probe identity included, since
  // the key and generation share line one with the bookkeeping — plus the
  // per-window line, because an ACK that lands on a window boundary reads
  // alpha and beta and a boundary can arrive on any packet. All three sit
  // inside one 256-byte slot, so a single page translation covers them.
  // Asked for in exclusive state because the path writes them. The fourth
  // line is CUBIC/PowerTCP aux state — flows running those fault it per
  // ACK rather than taxing every flow with a fourth prefetch line.
  const char* s = reinterpret_cast<const char*>(&hot_[slot]);
  __builtin_prefetch(s, 1);
  __builtin_prefetch(s + 64, 1);
  __builtin_prefetch(s + 128, 1);
#else
  (void)key;
#endif
}

void FlowTable::prefetch_probe(const FlowKey& key) const {
#if defined(__GNUC__) || defined(__clang__)
  if (capacity_ == 0) return;
  __builtin_prefetch(&ctrl_[home_slot(hash_key(key))]);
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
    // The control byte, not the record, says whether a slot is live, so a
    // sweep over a sparse table reads one byte per slot and never faults
    // in a lane page that holds no flow.
    if (ctrl_[slot] == kCtrlEmpty) {
      ++slot;
      continue;
    }
    const FlowHot& hot = hot_[slot];
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
  return ref_at(lru_head_, false);
}

void FlowTable::occupy(std::uint32_t slot, const FlowKey& key, sim::Time now) {
  ctrl_[slot] = tag_of(hash_key(key));
  // Placement-new: the lanes are raw storage (table_array.h) and this is a
  // slot's first write since allocation or erasure. Identity is stamped
  // after construction — the fresh record zeroes it.
  FlowHot* hot = new (&hot_[slot]) FlowHot{};
  hot->key = key;
  hot->gen = next_gen_++;
  if (next_gen_ == 0) next_gen_ = 1;  // keep 0 = invalid after u32 wrap
  hot->last_activity = now;
  FlowCold* cold = new (&cold_[slot]) FlowCold{};
  cold->created_at = now;
  lru_push_back(slot);
  ++size_;
}

void FlowTable::erase_slot(std::uint32_t slot) {
  lru_unlink(slot);
  --size_;
  // Backward-shift deletion: instead of leaving a tombstone, walk the probe
  // chain after the hole and pull back every entry whose home slot the hole
  // cyclically covers, so no chain ever carries dead slots. This is what
  // keeps eviction-heavy regimes fast: a bounded table at its cap erases on
  // every admission, and tombstones would both stretch every miss probe
  // (a new flow's lookup only stops at a genuinely empty slot) and force
  // periodic cleanup rehashes. Relocated records keep their generation, so
  // a stale handle to the old slot fails deref() and re-probes by key.
  std::uint32_t hole = slot;
  std::uint32_t j = (slot + 1) & mask_;
  while (ctrl_[j] != kCtrlEmpty) {
    const std::uint32_t home = home_slot(hash_key(hot_[j].key));
    // Move when the hole lies cyclically in [home, j): the entry stays
    // findable (its probe chain still reaches it) and moves closer to home.
    if (((hole - home) & mask_) < ((j - home) & mask_)) {
      move_slot(j, hole);
      hole = j;
    }
    j = (j + 1) & mask_;
  }
  ctrl_[hole] = kCtrlEmpty;
  hot_[hole].gen = 0;
}

void FlowTable::move_slot(std::uint32_t from, std::uint32_t to) {
  ctrl_[to] = ctrl_[from];
  // The destination is raw (or vacated) storage; the source records are
  // trivially copyable, so a placement copy is a straight memcpy.
  new (&hot_[to]) FlowHot(hot_[from]);
  new (&cold_[to]) FlowCold(cold_[from]);
  hot_[from].gen = 0;
  // The LRU list is threaded by slot index; re-point the neighbors.
  FlowHot& h = hot_[to];
  if (h.lru_prev != kNil) {
    hot_[h.lru_prev].lru_next = to;
  } else {
    lru_head_ = to;
  }
  if (h.lru_next != kNil) {
    hot_[h.lru_next].lru_prev = to;
  } else {
    lru_tail_ = to;
  }
}

void FlowTable::ensure_insert_capacity() {
  if ((size_ + 1) * 8 <= static_cast<std::size_t>(capacity_) * 7) return;
  rehash(capacity_ == 0 ? kMinCapacity
                        : static_cast<std::size_t>(capacity_) * 2,
         LaneFill::kDense);
}

void FlowTable::reserve_for(std::size_t entries) {
  // Smallest power of two keeping `entries` live flows under the 7/8 bound.
  std::size_t want = next_pow2(entries + entries / 7 + 1);
  if (want < kMinCapacity) want = kMinCapacity;
  if (want > capacity_) rehash(want, LaneFill::kSparse);
}

void FlowTable::rehash(std::size_t new_capacity, LaneFill fill) {
  assert((new_capacity & (new_capacity - 1)) == 0);
  const std::uint32_t old_capacity = capacity_;
  auto old_hot = std::move(hot_);
  auto old_cold = std::move(cold_);
  const std::uint32_t old_head = lru_head_;

  capacity_ = static_cast<std::uint32_t>(new_capacity);
  mask_ = capacity_ - 1;
  ctrl_ = TableArray<std::uint8_t>(capacity_, LaneFill::kDense);
  std::memset(ctrl_.data(), kCtrlEmpty, capacity_);
  // Zero bytes already mean "vacant" (gen 0) in every slot's identity
  // field; the hot and cold records stay raw until occupy() constructs
  // into them, so growing a sparse table never sweeps hundreds of MB of
  // record storage, and a lane reserved for a cap costs only the pages
  // its flows write (table_array.h).
  hot_ = TableArray<FlowHot>(capacity_, fill);
  cold_ = TableArray<FlowCold>(capacity_, fill);
  size_ = 0;
  lru_head_ = kNil;
  lru_tail_ = kNil;

  // Re-insert in LRU order so the eviction order survives the move. Each
  // entry keeps its generation: a handle issued before the rehash now
  // names a slot whose generation is either 0 or some *other* flow's
  // never-reused id, so it can never falsely validate — the holder falls
  // back to a keyed probe. The copied LRU links are stale for the new slot
  // numbering; lru_push_back overwrites them.
  for (std::uint32_t old_slot = old_head; old_slot != kNil;
       old_slot = old_hot[old_slot].lru_next) {
    const FlowHot& src = old_hot[old_slot];
    const std::uint32_t slot = insert_slot(src.key);
    ctrl_[slot] = tag_of(hash_key(src.key));
    new (&hot_[slot]) FlowHot(src);
    new (&cold_[slot]) FlowCold(old_cold[old_slot]);
    lru_push_back(slot);
    ++size_;
  }
  if (old_capacity != 0) ++stats_.rehashes;
}

void FlowTable::lru_unlink(std::uint32_t slot) {
  const std::uint32_t prev = hot_[slot].lru_prev;
  const std::uint32_t next = hot_[slot].lru_next;
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

void FlowTable::lru_push_back(std::uint32_t slot) {
  hot_[slot].lru_prev = lru_tail_;
  hot_[slot].lru_next = kNil;
  if (lru_tail_ != kNil) {
    hot_[lru_tail_].lru_next = slot;
  } else {
    lru_head_ = slot;
  }
  lru_tail_ = slot;
}

}  // namespace acdc::vswitch
