// Allocation-free two-level event queue: a small 4-ary heap for the due
// horizon over a calendar of unsorted far buckets, with generation-tagged
// O(1) lazy cancellation.
//
// Design notes (this is the simulator's hottest structure):
//  - Near level: a 4-ary min-heap of 16-byte POD entries {time, slot}
//    holding every event whose ~65.5 us bucket (time >> kBucketShift) is at
//    or before the current bucket. Sift operations move only these, never
//    the callbacks, and only entries that tie on time read their
//    tie-breaks from the slot arena. sift_down picks the earliest child of
//    a full sibling group by time with selects; the slots are read only
//    when two of the four children, or a child and the moving entry, share
//    that time. (A sibling group is 64 bytes, but the heap vector is only
//    16-byte aligned and siblings start at index 4i+1, so a group usually
//    spans two cache lines.)
//  - Far level: later events wait unsorted in their slots, linked into one
//    list per calendar bucket of the current lap (kBuckets buckets, aligned
//    to a multiple of kBuckets) or into a single overflow list past the
//    lap. When the heap runs dry, the earliest occupied bucket moves into
//    it wholesale (found via a two-level occupancy bitmap: one summary
//    word over 64 words); when the lap runs dry, the queue jumps straight
//    to the overflow's earliest lap and spreads the overflow entries of
//    that lap into the calendar. A bucket head is read only while the
//    bucket's occupancy bit is set, so the heads start unfilled and an idle
//    queue never touches them. So a timer tens of milliseconds out costs a
//    list push, not a walk through ~log4(n) cache-missing heap levels, and
//    each overflow entry is touched once per lap. This follows Varghese &
//    Lauck's timing wheels (SOSP '87) and Brown's calendar queues (CACM
//    '88), whose rule is to size buckets to the event spacing: most
//    inserts land a few microseconds ahead, so a bucket of ~65 us keeps
//    the heap to the events of the next few dozen microseconds (~109
//    entries per pop on the 100k-user service workload, against ~362 with
//    ~1 ms buckets).
//  - Every heap entry belongs to a bucket at or before every far entry's,
//    so the heap top is the global minimum and the pop order is exactly
//    (time, key, seq) whatever the level an event waited in.
//  - Each event owns one 96-byte slot in an arena addressed by index: its
//    callback (EventAction, small-buffer optimized, moved by memcpy when
//    trivially copyable), time, tie key and seq, and the far-list link.
//    Slots are recycled through a freelist, so steady-state
//    schedule/cancel/fire churn performs zero heap traffic once the arena
//    and the heap reach their high-water marks. A pending event costs its
//    slot, plus a heap entry while in the near level.
//  - An EventId packs {generation, slot}. cancel() validates the generation,
//    so a stale id (slot since recycled) is a no-op. Cancelled far entries
//    are reaped when their bucket moves, so they never touch the heap;
//    cancelled heap entries are reaped when they reach the top.
//  - Ties break by an optional explicit key first, then schedule order
//    (monotonic `seq`), preserving the determinism contract exactly.
//    The key exists for packet-delivery events: a content-derived canonical
//    key makes same-timestamp deliveries order identically on the serial
//    and sharded engines, where insertion order necessarily differs (a
//    cross-shard delivery is inserted at mailbox-drain time, not at its
//    causal schedule time). Keyed events order before unkeyed ones at the
//    same timestamp. A delivery's action computes its own key
//    (schedule_keyed(at, action)); the queue asks for it only when the
//    event ties on time with another keyed event, once, so the few such
//    ties pay for the hash and the rest never do.
//  - An event that dies unfired (reaped after cancel(), or still pending
//    when the queue is destroyed) is discarded: an action with a drop()
//    member, such as a delivery carrying a raw packet, releases what it
//    holds. A fired event never calls drop().
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "sim/inline_function.h"
#include "sim/time.h"

namespace acdc::sim {

// Identifies a scheduled event so it can be cancelled (e.g. TCP RTO timers).
// Packed {generation:32, slot:32}; generations start at 1 so no valid id is
// ever 0.
using EventId = std::uint64_t;

inline constexpr EventId kInvalidEventId = 0;

// Tie key for events scheduled without one; sorts after every real key.
inline constexpr std::uint64_t kUnkeyedTieKey = ~std::uint64_t{0};

// Explicit tie sequences (schedule(at, key, tie_seq, action)) occupy the
// upper half of the sequence space so they sort after every locally-inserted
// event with the same (at, key). Cross-shard mail uses
// mail_tie_seq(src_shard, mailbox_seq): the resulting order for (at, key)
// collisions is a pure function of simulation content — (src_shard,
// per-mailbox seq) — independent of when each executor thread happened to
// drain its inboxes. Local insertion counters stay below this bit for the
// lifetime of any feasible run (2^63 events).
inline constexpr std::uint64_t kExplicitTieSeqBit = std::uint64_t{1} << 63;

inline constexpr std::uint64_t mail_tie_seq(std::uint32_t src_shard,
                                            std::uint64_t mailbox_seq) {
  return kExplicitTieSeqBit | (static_cast<std::uint64_t>(src_shard) << 48) |
         (mailbox_seq & ((std::uint64_t{1} << 48) - 1));
}

class EventQueue {
 public:
  // Calendar geometry: 2^16 ns (~65.5 us) buckets, 4096 to a lap (2^28 ns,
  // ~268 ms).
  static constexpr int kBucketShift = 16;
  static constexpr std::size_t kBuckets = 4096;

  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;
  // Discards every event still pending (see InlineFunction::discard).
  ~EventQueue();

  // Schedules `action` at absolute time `at`. Ties are broken by insertion
  // order so the simulation is deterministic.
  EventId schedule(Time at, EventAction&& action);

  // As above with an explicit tie key: same-time events order by key before
  // insertion order, and before any unkeyed event at that time.
  // kUnkeyedTieKey schedules an unkeyed event.
  EventId schedule(Time at, std::uint64_t key, EventAction&& action);

  // As above, but with a caller-supplied tie sequence instead of the
  // insertion counter. Cross-shard mail passes a mail_tie_seq (bit 63 set,
  // unique per (at, key)) so (at, key) collisions order deterministically
  // regardless of drain timing; a deadline timer passes a number it took
  // earlier with take_seq().
  EventId schedule(Time at, std::uint64_t key, std::uint64_t tie_seq,
                   EventAction&& action);

  // Keyed by the action itself: it orders as schedule(at,
  // action.tie_key(), action) would, but the queue calls tie_key() only
  // when the event ties on time with another keyed event, at most once.
  // Being keyed already puts it before every unkeyed event at its time,
  // whatever the key (so even a key equal to kUnkeyedTieKey). The key must
  // not change while the event waits; tie_key() is never called once the
  // event has fired or been cancelled. Precondition (checked):
  // action.has_tie_key().
  EventId schedule_keyed(Time at, EventAction&& action);

  // Consumes the insertion sequence number the next plain schedule() would
  // have used, for a later schedule(at, key, tie_seq, action).
  std::uint64_t take_seq() { return next_seq_++; }
  // The latest insertion sequence number handed out (0 before the first).
  std::uint64_t last_seq() const { return next_seq_ - 1; }

  // Cancels a pending event. Cancelling an already-fired, already-cancelled
  // or invalid id is a no-op, which keeps timer bookkeeping in callers
  // simple.
  void cancel(EventId id);

  bool empty() const { return live_count_ == 0; }
  std::size_t size() const { return live_count_; }

  // Time of the earliest pending event; kNoTime when empty. May move the
  // next far bucket into the heap, so only the queue's owner may call it.
  Time next_time();

  // A popped event and its place in the pop order.
  struct Next {
    Time at = 0;
    std::uint64_t seq = 0;
    bool unkeyed = true;  // scheduled without a tie key
    EventAction action;
  };

  // Pops the earliest event if it is due at or before `deadline`, without
  // running it, so the caller can advance its clock (and record the event's
  // position) before invoking the action. Returns false, popping nothing,
  // when no live event is due by then.
  bool take_next(Time deadline, Next& next);

  // Pops the earliest event. Precondition (checked): !empty().
  Next take_next();

  std::uint64_t executed_count() const { return executed_; }

  // Introspection for the perf tests: arena and heap high-water marks
  // (steady state must not grow them) and the events waiting in the far
  // level, cancelled ones included.
  std::size_t slot_capacity() const { return slots_.size(); }
  std::size_t heap_capacity() const { return heap_.capacity(); }
  std::size_t far_size() const { return far_size_; }
  static constexpr std::size_t heap_entry_bytes() { return sizeof(Entry); }

 private:
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};
  static constexpr std::int64_t kLapMask = kBuckets - 1;
  static constexpr std::int64_t kNoBucket =
      std::numeric_limits<std::int64_t>::max();

  struct Entry {
    Time at = 0;
    std::uint32_t slot = 0;  // index into slots_
  };

  // How a same-time tie breaks: keyed events first, by key, then seq.
  enum class Tie : std::uint8_t {
    kUnkeyed,
    kKeyed,
    kLazy,  // keyed; the key is action.tie_key(), not computed yet
  };

  struct Slot {
    // The two links live in the action's tail padding.
    [[no_unique_address]] EventAction action;
    std::uint32_t generation = 1;
    std::uint32_t next = kNone;  // far-list link, or freelist link
    Time at = 0;
    std::uint64_t key = kUnkeyedTieKey;  // tie-break 1: explicit key
    std::uint64_t seq = 0;               // tie-break 2: insertion order
    Tie tie = Tie::kUnkeyed;
    bool armed = false;      // between schedule and fire/skip
    bool cancelled = false;  // lazily reaped (heap top or bucket move)
  };

  static_assert(sizeof(Entry) == 16, "a 4-ary sibling group is 64 bytes");
  static_assert(kBuckets / 64 <= 64, "one summary word covers the bitmap");
  static_assert(sizeof(Slot) <= 96,
                "a pending event costs at most 112 B with its heap entry");

  bool earlier(const Entry& a, const Entry& b) {
    if (a.at != b.at) return a.at < b.at;
    return tie_earlier(a.slot, b.slot);
  }
  // Order of two same-time events: keyed first, then (key, seq).
  bool tie_earlier(std::uint32_t a, std::uint32_t b);

  static std::int64_t bucket_of(Time at) { return at >> kBucketShift; }

  EventId insert(Time at, std::uint64_t key, Tie tie, std::uint64_t seq,
                 EventAction&& action);
  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t index);
  void sift_up(std::size_t i);
  void sift_down(std::size_t i);
  void pop_heap_top();
  // Links slot `index` into its calendar bucket or the overflow list.
  void link_far(std::uint32_t index);
  // Releases far slot `index` if its event was cancelled.
  bool reap_far(std::uint32_t index);
  // Moves the earliest far bucket into the empty heap, or, when the lap is
  // exhausted, jumps to the overflow's earliest lap.
  void pull_next_bucket();
  void spread_overflow();
  // Reaps cancelled heap tops and refills an empty heap from the far
  // level; false when no live event remains.
  bool settle() {
    if (!heap_.empty() && !slots_[heap_[0].slot].cancelled) return true;
    return settle_slow();
  }
  bool settle_slow();

  std::vector<Entry> heap_;  // 4-ary min-heap ordered by earlier()
  std::vector<Slot> slots_;
  std::uint32_t free_slot_ = kNone;

  // Far level. The heap holds every event with bucket <= cur_bucket_; the
  // calendar holds the rest of the current lap (buckets up to
  // lap_end_ - 1); the overflow list holds everything from lap_end_ on.
  // Lists run through Slot::next.
  std::size_t far_size_ = 0;  // slots on lists, cancelled ones included
  // Valid only where the bucket's occupied_ bit is set; the first push onto
  // an empty bucket writes its head. Left unfilled, and off the queue's own
  // footprint, so a new queue touches none of its 16 KiB.
  std::unique_ptr<std::uint32_t[]> bucket_head_{new std::uint32_t[kBuckets]};
  std::array<std::uint64_t, kBuckets / 64> occupied_{};  // bit per bucket
  std::uint64_t occupied_words_ = 0;  // bit w: occupied_[w] != 0
  std::uint32_t overflow_head_ = kNone;
  std::int64_t overflow_min_ = kNoBucket;  // lower bound on its buckets
  std::int64_t cur_bucket_ = 0;
  std::int64_t lap_end_ = static_cast<std::int64_t>(kBuckets);

  std::uint64_t next_seq_ = 1;
  std::size_t live_count_ = 0;
  std::uint64_t executed_ = 0;
};

}  // namespace acdc::sim
