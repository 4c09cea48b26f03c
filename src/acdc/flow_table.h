// The vSwitch flow table (§4): open-addressed hash table keyed on the
// directional 5-tuple, entries created on SYN (or lazily on first packet for
// mid-flow adoption), removed by FIN plus a coarse-grained garbage
// collector. The paper uses RCU hash tables with per-entry spinlocks to make
// reader-dominated access cheap; the simulator is single-threaded, so this
// class keeps the lookup-dominated interface and spends its effort on cache
// lines instead. The table is an index over a store. The index is the probe
// array: one 8-byte slot word per slot, the low 32 bits of the key hash plus
// the record index + 1, so a probe rejects non-matching slots without
// loading a key, and a backward-shift delete moves words, never records.
// The store is a pair of dense record pools, the hot record and the cold
// one (flow_state.h), so a packet touches only the lines — and pages — it
// needs, and the pools hold live flows, not slots.
//
// Callers never hold raw pointers across datapath calls. A lookup returns a
// FlowRef — record pointers valid until the next table mutation — and a
// FlowHandle{slot, generation} that can be retained: generations are
// globally unique (a monotonic counter, never reused), so deref() on a
// handle whose flow was erased, evicted, GC'd or whose slot word moved — by
// a rehash, or by the backward shift a neighbor's deletion performs — fails
// a single integer compare and the holder re-probes by key. This supersedes
// the old whole-table version counter the AcdcCore direction caches were
// built on.
//
// Memory bound: the table can be capped (set_limit). At the cap a new flow
// evicts the oldest-idle entry — the head of the record-linked LRU list,
// which touch() keeps ordered by last_activity — and the eviction is
// counted so operators can see cap pressure. The record it frees is the one
// the new flow takes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>

#include "acdc/flow_state.h"
#include "acdc/table_array.h"
#include "sim/time.h"

namespace acdc::vswitch {

// Generation-checked reference to a flow: the slot its word held when the
// handle was issued, and the flow's generation. gen == 0 never matches a
// live record, so a default-constructed handle is always invalid.
struct FlowHandle {
  std::uint32_t slot = 0;
  std::uint32_t gen = 0;

  bool valid() const { return gen != 0; }
  bool operator==(const FlowHandle&) const = default;
};

// The working unit the datapath passes around: the handle plus direct
// pointers into the table's record pools. Pointers stay valid until the
// next insert/erase/GC (a growing pool relocates records); re-acquire
// through deref() or a fresh lookup across table mutations.
struct FlowRef {
  FlowHandle handle{};
  const FlowKey* key = nullptr;
  FlowHot* hot = nullptr;
  FlowCold* cold = nullptr;
  bool created = false;

  explicit operator bool() const { return hot != nullptr; }
};

class FlowTable {
 public:
  struct Stats {
    std::int64_t lookups = 0;
    std::int64_t hits = 0;
    std::int64_t inserts = 0;
    std::int64_t removals = 0;
    std::int64_t gc_removed = 0;
    std::int64_t evictions = 0;  // cap-pressure removals (LRU)
    std::int64_t rehashes = 0;   // capacity growth
  };

  FlowTable() = default;
  FlowTable(const FlowTable&) = delete;
  FlowTable& operator=(const FlowTable&) = delete;

  // Lookup without insertion; a null FlowRef when absent.
  FlowRef find(const FlowKey& key);

  // Lookup-or-insert in one probe sequence; never returns a null FlowRef.
  FlowRef find_or_create(const FlowKey& key, sim::Time now);

  // Generation check: the live record for `h`, or a null FlowRef when the
  // flow was removed or its slot word moved since the handle was issued:
  // the record the slot word names must carry the handle's generation.
  // Does not count as a lookup (no probing happens).
  FlowRef deref(FlowHandle h);

  // Removes the flow with `key`; false when absent. The datapath removes
  // flows only by GC and cap eviction; this is the shadow model's erase
  // (FlowTableProperty.RandomOpMixMatchesShadowModel, FlowTableHandles.*,
  // FlowTableLayout.SeededOpMixMatchesParentSlotTrace,
  // FlowTableTest.CreateFindErase and .HandleGenerationsTrackMembership,
  // FlowCacheTest.EraseInvalidatesCachedEntry).
  bool erase(const FlowKey& key);

  // Marks activity on the flow: stamps last_activity and moves the record
  // to the most-recently-used end of the eviction order. The datapath calls
  // this on every packet it attributes to a flow, so LRU order == idle
  // order and evicting the list head removes the oldest-idle entry.
  void touch(const FlowRef& ref, sim::Time now);

  // Two-stage lookup warming for the burst path (DESIGN.md §14). Both are
  // stats-neutral and mutate nothing.
  //
  // Stage 1 (`prefetch_probe`, issued furthest ahead): warms the slot words
  // at the key's home slot — all an absent-key probe ever reads, and the
  // input the second stage scans. Also the whole warming story for lookups
  // expected to miss (e.g. the reversed key of a piggybacked ACK on a
  // unidirectional flow).
  //
  // Stage 2 (`prefetch`, issued closer in): scans the now-warm slot words
  // for the key's hash to locate the *probable* slot — following the probe
  // chain the real lookup will walk — and warms the hot record that slot
  // word names. Resolving the word first matters: the record's address is
  // in it, and at high occupancy a third of lookups land off their home
  // slot. A hash collision on the stored 32 bits (the bits above the slot
  // index discriminate: 1 in 2^12 at 1M slots) warms a wrong record; the
  // lookup still works, it just stalls as if unprefetched.
  void prefetch(const FlowKey& key) const;
  void prefetch_probe(const FlowKey& key) const;

  // Bounds the table to `max_entries` (0 = unbounded, the default).
  // Changing the cap never removes existing entries eagerly; enforcement
  // happens on the next insert.
  void set_limit(std::size_t max_entries);

  // Removes entries idle for longer than `idle_timeout`, and FIN-marked
  // entries idle for longer than `fin_linger`.
  std::size_t collect_garbage(sim::Time now, sim::Time idle_timeout,
                              sim::Time fin_linger);

  // Oldest-idle entry (head of the LRU order); null when empty. The list
  // links records, so this probes from the head record's key back to its
  // slot. Only tests read it, as the shadow model's check on eviction order
  // (FlowTableProperty.RandomOpMixMatchesShadowModel,
  // FlowTableLayout.SeededOpMixMatchesParentSlotTrace).
  FlowRef oldest();

  std::size_t size() const { return size_; }
  std::size_t capacity() const { return capacity_; }
  const Stats& stats() const { return stats_; }

  // Visits every live flow in slot order. The callback may mutate flow
  // state but must not insert or erase. Live slots are found by slot word,
  // so the sweep reads no record on behalf of an empty slot.
  template <typename Fn>
  void for_each(Fn&& fn) {
    for (std::uint32_t s = 0; s < capacity_; ++s) {
      if (slots_[s].ref != 0) fn(ref_at(s, false));
    }
  }

 private:
  friend class LaneResidencyProbe;  // tests/lane_residency_test.cc

  // One probe-array slot. There are no tombstones: deletion back-shifts
  // the probe chain (erase_slot), so an empty word always terminates a
  // probe. All-zero is empty, so a fresh, unwritten index is an empty table.
  struct SlotWord {
    std::uint32_t hash = 0;  // low 32 bits of the key hash; & mask_ = home
    std::uint32_t ref = 0;   // record index + 1; 0 = empty slot
  };
  static_assert(sizeof(SlotWord) == 8);

  static constexpr std::uint32_t kNil = 0xFFFFFFFFu;
  static constexpr std::size_t kMinCapacity = 64;
  static constexpr std::uint32_t kMinPool = 64;

  FlowRef ref_at(std::uint32_t slot, bool created) const {
    const std::uint32_t r = slots_[slot].ref - 1;
    FlowHot& h = hot_[r];
    return FlowRef{FlowHandle{slot, h.gen}, &h.key, &h, &cold_[r], created};
  }

  static std::uint32_t hash_key(const FlowKey& key) {
    return static_cast<std::uint32_t>(FlowKeyHash{}(key));
  }

  // Probe for an existing key with hash `h`; kNil when absent.
  std::uint32_t lookup_slot(const FlowKey& key, std::uint32_t h) const;
  // Probe for the insertion slot (the empty slot terminating the chain of
  // hash `h`). The key must not be present.
  std::uint32_t insert_slot(std::uint32_t h) const;
  // The slot whose word names live record `r`.
  std::uint32_t slot_of(std::uint32_t r) const;

  void occupy(std::uint32_t slot, const FlowKey& key, std::uint32_t h,
              sim::Time now);
  // Removal with backward-shift deletion: slot words after the hole whose
  // home slot the hole covers are pulled back, so chains never carry dead
  // slots and an at-cap eviction regime never needs a cleanup rehash. A
  // moved word keeps naming its record, whose generation a handle naming
  // the old slot no longer finds there, so it fails deref() and falls back
  // to a keyed probe.
  void erase_slot(std::uint32_t slot);
  // Ensures one more insert keeps the live load under 7/8, doubling
  // otherwise.
  void ensure_insert_capacity();
  // Sizes the index for a cap once, so the table never rehashes at it.
  void reserve_for(std::size_t entries);
  void rehash(std::size_t new_capacity);

  // Record pool: a LIFO free list first, so an at-cap insert reuses the
  // record its eviction just freed while its lines are warm; then the
  // never-used tail, doubling the pools (never past the cap) when full.
  std::uint32_t alloc_record();
  void free_record(std::uint32_t r);
  void grow_pools();

  void lru_unlink(std::uint32_t r);
  void lru_push_back(std::uint32_t r);

  // Every lane takes its pages by size (table_array.h): 2 MB pages from
  // 2 MB up, lazily faulted 4 KB pages below. The index is zero when fresh
  // and sized for the cap in a capped table, so that table pays only for
  // the index pages its flows' probes reach; the pools are dense, so their
  // written pages are their live records' and no more. At 1M+ flows the
  // 2 MB pages keep a lookup's slot word and record inside the STLB, which
  // also keeps the burst path's prefetches alive (x86 drops a software
  // prefetch whose translation misses the TLB).
  TableArray<SlotWord> slots_;
  TableArray<FlowHot> hot_;
  TableArray<FlowCold> cold_;

  std::uint32_t capacity_ = 0;  // slots; always a power of two (or 0
                                // before the first insert)
  std::uint32_t mask_ = 0;
  std::size_t size_ = 0;
  std::uint32_t pool_size_ = 0;  // records each pool holds
  std::uint32_t pool_used_ = 0;  // records ever handed out
  std::uint32_t free_head_ = kNil;  // freed records, linked via lru_next
  std::uint32_t lru_head_ = kNil;   // record indices
  std::uint32_t lru_tail_ = kNil;
  // Monotonic generation source. Never reused, so a stale handle can never
  // alias a later flow in the same slot (or any slot after a rehash). u32
  // wrap needs 4 billion inserts in one vSwitch's lifetime — out of scope
  // for simulated runs; the skip keeps gen 0 meaning "invalid" regardless.
  std::uint32_t next_gen_ = 1;

  Stats stats_;
  std::size_t max_entries_ = 0;
};

}  // namespace acdc::vswitch
