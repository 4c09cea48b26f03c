// The vSwitch flow table (§4): open-addressed hash table keyed on the
// directional 5-tuple, entries created on SYN (or lazily on first packet for
// mid-flow adoption), removed by FIN plus a coarse-grained garbage
// collector. The paper uses RCU hash tables with per-entry spinlocks to make
// reader-dominated access cheap; the simulator is single-threaded, so this
// class keeps the lookup-dominated interface and spends its effort on cache
// lines instead: control bytes (a 7-bit hash tag per slot) resolve most
// probes without touching the key array, and the per-flow state splits into
// a hot record co-located with the probe metadata (one slot = one page
// neighborhood) and a cold record in its own lane (flow_state.h), so a
// packet touches only the lines — and pages — it needs.
//
// Callers never hold raw pointers across datapath calls. A lookup returns a
// FlowRef — slot-stable pointers valid until the next table mutation — and a
// FlowHandle{slot, generation} that can be retained: generations are
// globally unique (a monotonic counter, never reused), so deref() on a
// handle whose flow was erased, evicted, GC'd or relocated — by a rehash,
// or by the backward shift a neighbor's deletion performs — fails a single
// integer compare and the holder re-probes by key. This supersedes the old
// whole-table version counter the AcdcCore direction caches were built on.
//
// Memory bound: the table can be capped (set_limit). At the cap a new flow
// evicts the oldest-idle entry — the head of the slot-linked LRU list,
// which touch() keeps ordered by last_activity — and the eviction is
// counted so operators can see cap pressure.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>

#include "acdc/flow_state.h"
#include "acdc/table_array.h"
#include "sim/time.h"

namespace acdc::vswitch {

// Generation-checked reference to a flow. gen == 0 never matches a live
// slot, so a default-constructed handle is always invalid.
struct FlowHandle {
  std::uint32_t slot = 0;
  std::uint32_t gen = 0;

  bool valid() const { return gen != 0; }
  bool operator==(const FlowHandle&) const = default;
};

// The working unit the datapath passes around: the handle plus direct
// pointers into the table's slot arrays. Pointers stay valid until the next
// insert/erase/GC (a rehash relocates records); re-acquire through deref()
// or a fresh lookup across table mutations.
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
  // flow was removed or relocated since the handle was issued. Does not
  // count as a lookup (no probing happens).
  FlowRef deref(FlowHandle h);

  bool erase(const FlowKey& key);

  // Marks activity on the flow: stamps last_activity and moves the slot to
  // the most-recently-used end of the eviction order. The datapath calls
  // this on every packet it attributes to a flow, so LRU order == idle
  // order and evicting the list head removes the oldest-idle entry.
  void touch(const FlowRef& ref, sim::Time now);

  // Two-stage lookup warming for the burst path (DESIGN.md §14). Both are
  // stats-neutral and mutate nothing.
  //
  // Stage 1 (`prefetch_probe`, issued furthest ahead): warms the control
  // bytes at the key's home slot — all an absent-key probe ever reads, and
  // the input the second stage scans. Also the whole warming story for
  // lookups expected to miss (e.g. the reversed key of a piggybacked ACK on
  // a unidirectional flow).
  //
  // Stage 2 (`prefetch`, issued closer in): scans the now-warm control
  // bytes for the key's tag to locate the *probable* slot — following the
  // probe chain the real lookup will walk — and warms the key/generation
  // lane and the hot record there. Resolving the slot first matters: at
  // high occupancy a third of lookups land off their home slot, and lines
  // warmed at the wrong slot hide nothing. A 7-bit tag collision (~1/128
  // per probed slot) warms a wrong line; the lookup still works, it just
  // stalls as if unprefetched.
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

  // Oldest-idle entry (head of the LRU order); null when empty.
  FlowRef oldest();

  std::size_t size() const { return size_; }
  std::size_t capacity() const { return capacity_; }
  const Stats& stats() const { return stats_; }

  // Visits every live flow in slot order. The callback may mutate flow
  // state but must not insert or erase. Live slots are found by control
  // byte, so the sweep reads no record of an empty slot.
  template <typename Fn>
  void for_each(Fn&& fn) {
    for (std::uint32_t s = 0; s < capacity_; ++s) {
      if (ctrl_[s] != kCtrlEmpty) fn(ref_at(s, false));
    }
  }

 private:
  // Control bytes: one per slot. Live slots hold a 7-bit tag (top bits of
  // the key hash), so a probe rejects non-matching slots without loading
  // the 12-byte key. There are no tombstones: deletion back-shifts the
  // probe chain (erase_slot), so an empty byte always terminates a probe.
  static constexpr std::uint8_t kCtrlEmpty = 0x80;
  static constexpr std::uint32_t kNil = 0xFFFFFFFFu;
  static constexpr std::size_t kMinCapacity = 64;

  FlowRef ref_at(std::uint32_t slot, bool created) {
    FlowHot& h = hot_[slot];
    return FlowRef{FlowHandle{slot, h.gen}, &h.key, &h, &cold_[slot],
                   created};
  }

  static std::uint64_t hash_key(const FlowKey& key) {
    return static_cast<std::uint64_t>(FlowKeyHash{}(key));
  }
  static std::uint8_t tag_of(std::uint64_t h) {
    return static_cast<std::uint8_t>(h >> 57) & 0x7F;
  }
  std::uint32_t home_slot(std::uint64_t h) const {
    return static_cast<std::uint32_t>(h) & mask_;
  }

  // Probe for an existing key; kNil when absent.
  std::uint32_t lookup_slot(const FlowKey& key) const;
  // Probe for the insertion slot (the empty slot terminating the key's
  // chain). The key must not be present.
  std::uint32_t insert_slot(const FlowKey& key) const;

  void occupy(std::uint32_t slot, const FlowKey& key, sim::Time now);
  // Removal with backward-shift deletion: entries after the hole whose home
  // slot the hole covers are pulled back, so chains never carry dead slots
  // and an at-cap eviction regime never needs a cleanup rehash.
  void erase_slot(std::uint32_t slot);
  // Relocates a live record (backward shift), re-pointing its LRU
  // neighbors; the generation travels with the record, so handles naming
  // the old slot fail deref() and fall back to a keyed probe.
  void move_slot(std::uint32_t from, std::uint32_t to);
  // Ensures one more insert keeps the live load under 7/8, doubling
  // otherwise.
  void ensure_insert_capacity();
  // Sizes the table for a cap once, in sparse lanes (table_array.h).
  void reserve_for(std::size_t entries);
  void rehash(std::size_t new_capacity, LaneFill fill);

  void lru_unlink(std::uint32_t slot);
  void lru_push_back(std::uint32_t slot);

  // Slot storage lives in raw lanes (table_array.h) whose pages follow how
  // they fill. A growth rehash fills a lane at least 7/16 full at once, so
  // large grown lanes take 2 MB pages: at 1M+ slots the hot lane alone
  // spans hundreds of MB, and with 4 KB pages every random lookup costs a
  // TLB miss on top of the DRAM line — which also silently kills the burst
  // path's prefetches (x86 drops a software prefetch whose translation
  // misses the TLB). Where the kernel can't grant them, the
  // key/generation/LRU embedding in FlowHot (flow_state.h) caps the damage
  // at one walk per lookup. A lane reserved for a cap (set_limit) fills one
  // flow at a time and may never fill, so it takes lazily faulted 4 KB
  // pages and costs only the pages its flows write; the control lane is
  // memset whole either way.
  TableArray<std::uint8_t> ctrl_;
  TableArray<FlowHot> hot_;
  TableArray<FlowCold> cold_;

  std::uint32_t capacity_ = 0;  // always a power of two (or 0 before first
                                // insert)
  std::uint32_t mask_ = 0;
  std::size_t size_ = 0;
  std::uint32_t lru_head_ = kNil;
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
