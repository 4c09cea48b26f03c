// Stress tests for the two-level event queue (near heap over a far
// calendar plus overflow list): cancellation via generation-tagged ids, FIFO
// tie-breaking at equal timestamps, the exact (time, key, seq) pop order
// under randomized schedule/cancel churn spanning every level (lazily keyed
// events included, whose keys are computed only on time ties) and under
// tie-dense churn on bucket and lap edges, allocation-free recycling of
// slots, and the lifetime of event actions.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "sim/event_queue.h"
#include "testlib/seed.h"

namespace acdc::sim {
namespace {

TEST(EventQueueTest, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(30, [&] { order.push_back(3); });
  q.schedule(10, [&] { order.push_back(1); });
  q.schedule(20, [&] { order.push_back(2); });
  while (!q.empty()) {
    auto next = q.take_next();
    next.action();
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, EqualTimesRunInScheduleOrder) {
  // The determinism contract: ties broken by insertion order, regardless of
  // how the heap arranges them internally.
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 100; ++i) {
    q.schedule(42, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.take_next().action();
  ASSERT_EQ(order.size(), 100u);
  EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
}

TEST(EventQueueTest, CancelPreventsExecution) {
  EventQueue q;
  int ran = 0;
  EventId id = q.schedule(10, [&] { ++ran; });
  q.schedule(20, [&] { ++ran; });
  q.cancel(id);
  EXPECT_EQ(q.size(), 1u);
  while (!q.empty()) q.take_next().action();
  EXPECT_EQ(ran, 1);
}

TEST(EventQueueTest, CancelIsIdempotentAndStaleSafe) {
  EventQueue q;
  int ran = 0;
  EventId id = q.schedule(10, [&] { ++ran; });
  q.cancel(id);
  q.cancel(id);  // double cancel: no-op
  EXPECT_TRUE(q.empty());

  // The slot is recycled; the old id's generation no longer matches, so a
  // stale cancel must not kill the new occupant.
  EventId id2 = q.schedule(5, [&] { ++ran; });
  q.cancel(id);  // stale
  EXPECT_EQ(q.size(), 1u);
  q.take_next().action();
  EXPECT_EQ(ran, 1);
  q.cancel(id2);  // executed events are also stale targets: no-op, no crash
}

TEST(EventQueueTest, InvalidIdIsNeverIssued) {
  EventQueue q;
  for (int i = 0; i < 1000; ++i) {
    EXPECT_NE(q.schedule(i, [] {}), kInvalidEventId);
  }
  q.cancel(kInvalidEventId);  // must be a harmless no-op
  EXPECT_EQ(q.size(), 1000u);
}

TEST(EventQueueTest, NextTimeSkipsCancelledHead) {
  EventQueue q;
  EventId early = q.schedule(10, [] {});
  q.schedule(20, [] {});
  EXPECT_EQ(q.next_time(), 10);
  q.cancel(early);
  EXPECT_EQ(q.next_time(), 20);
}

// Randomized churn over a wide span, checked pop by pop against a
// reference ordered by (time, key, seq). Delays run from 0 ns to several
// seconds, so events land in the near heap, in every calendar bucket, in
// the overflow list past the lap, and — once the tail drains — in laps the
// queue has to jump to over an empty calendar. Keyed events and events with
// an explicit (mail) tie sequence mix with plain ones, often on the very
// nanosecond of another pending event, and cancels hit events both still
// in a far bucket and already moved into the heap.
struct ChurnResult {
  std::vector<int> order;  // tags in execution order
  int near_cancels = 0;    // cancelled after their bucket moved
  int far_cancels = 0;     // cancelled while in a far bucket or overflow
  int lazy_events = 0;     // scheduled with schedule_keyed(at, action)
  int lazy_tied = 0;       // ... that shared their time with another event
  int key_calls = 0;       // tie_key() calls over all lazy events
};

// A lazily keyed event: records its tag when it runs and counts how often
// the queue asks for its key.
struct LazyKeyed {
  ChurnResult* result;
  std::vector<int>* calls;  // per tag
  int tag;
  std::uint64_t key;

  void operator()() const { result->order.push_back(tag); }
  std::uint64_t tie_key() const {
    ++(*calls)[static_cast<std::size_t>(tag)];
    ++result->key_calls;
    return key;
  }
};

ChurnResult churn_run(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  EventQueue q;
  ChurnResult result;
  using RefKey = std::tuple<Time, std::uint64_t, std::uint64_t, int>;
  std::set<RefKey> reference;  // pending events by (at, key, seq), + tag
  struct Live {
    EventId id;
    RefKey ref;
  };
  std::vector<Live> live;
  std::vector<std::size_t> live_pos;  // tag -> index into live
  std::uint64_t local_seq = 0;  // mirrors the queue's insertion counter
  std::uint64_t mail_seq = 0;
  Time now = 0;  // time of the last pop; schedules never go below it
  // Events that may still sit in the queue, by time: pending ones, and
  // cancelled ones until the clock passes their time (they are reaped by
  // then at the latest). A lazy event can only be asked for its key while
  // another event in here shares its time.
  std::multimap<Time, int> present;
  std::vector<bool> lazy;       // per tag
  std::vector<bool> tied;       // per tag: met a time tie while present
  std::vector<bool> cancelled;  // per tag
  std::vector<int> key_calls;   // per tag
  std::vector<int> calls_at_cancel;  // per tag; never asked after cancel

  const auto forget = [&](int tag) {
    const std::size_t i = live_pos[static_cast<std::size_t>(tag)];
    live[i] = live.back();
    live_pos[static_cast<std::size_t>(std::get<3>(live[i].ref))] = i;
    live.pop_back();
  };
  const auto pop = [&] {
    ASSERT_FALSE(reference.empty());
    const RefKey expected = *reference.begin();
    ASSERT_EQ(q.next_time(), std::get<0>(expected));
    EventQueue::Next next = q.take_next();
    next.action();
    ASSERT_EQ(result.order.back(), std::get<3>(expected))
        << "popped out of (time, key, seq) order at t=" << next.at;
    ASSERT_EQ(next.at, std::get<0>(expected));
    now = next.at;
    reference.erase(reference.begin());
    forget(std::get<3>(expected));
    for (auto it = present.begin(); it != present.end() && it->first <= now;) {
      const auto tag = static_cast<std::size_t>(it->second);
      if (it->second == std::get<3>(expected) ||
          (cancelled[tag] && it->first < now)) {
        it = present.erase(it);
      } else {
        ++it;
      }
    }
  };

  for (int round = 0; round < 40'000; ++round) {
    const auto action = rng() % 100;
    if (action < 62 || live.empty()) {
      Time delay;
      const auto span = rng() % 100;
      if (span < 30) {
        delay = static_cast<Time>(rng() % 64);  // heavy ties near now
      } else if (span < 45) {
        // Within two buckets of now.
        delay = static_cast<Time>(
            rng() % (Time{1} << (EventQueue::kBucketShift + 1)));
      } else if (span < 75) {
        delay = static_cast<Time>(rng() % milliseconds(300));  // calendar
      } else if (span < 90 || live.empty()) {
        delay = milliseconds(268) +
                static_cast<Time>(rng() % milliseconds(2'700));  // overflow
      } else {
        // Exactly on another pending event's nanosecond, whatever its level.
        delay = std::get<0>(live[rng() % live.size()].ref) - now;
      }
      const Time at = now + delay;
      const int tag = static_cast<int>(live_pos.size());
      const auto record = [&result, tag] { result.order.push_back(tag); };
      const auto kind = rng() % 10;
      EventId id;
      RefKey ref;
      lazy.push_back(false);
      tied.push_back(false);
      cancelled.push_back(false);
      key_calls.push_back(0);
      calls_at_cancel.push_back(0);
      if (kind < 5) {
        ref = {at, kUnkeyedTieKey, ++local_seq, tag};
        id = q.schedule(at, record);
      } else if (kind < 7) {
        const std::uint64_t key = rng() % 4;
        ref = {at, key, ++local_seq, tag};
        id = q.schedule(at, key, record);
      } else if (kind < 9) {
        const std::uint64_t key = rng() % 4;
        ref = {at, key, ++local_seq, tag};
        id = q.schedule_keyed(at, LazyKeyed{&result, &key_calls, tag, key});
        lazy.back() = true;
        ++result.lazy_events;
      } else {
        const std::uint64_t key = rng() % 4;
        const std::uint64_t seq =
            mail_tie_seq(static_cast<std::uint32_t>(rng() % 3), ++mail_seq);
        ref = {at, key, seq, tag};
        id = q.schedule(at, key, seq, record);
      }
      reference.insert(ref);
      live_pos.push_back(live.size());
      live.push_back({id, ref});
      const auto [first, last] = present.equal_range(at);
      if (first != last) {
        tied.back() = true;
        for (auto it = first; it != last; ++it) {
          tied[static_cast<std::size_t>(it->second)] = true;
        }
      }
      present.emplace(at, tag);
    } else if (action < 80) {
      const Live victim = live[rng() % live.size()];
      const Time at = std::get<0>(victim.ref);
      // Buckets at or before now's have already moved into the heap.
      constexpr int kShift = EventQueue::kBucketShift;
      if ((at >> kShift) <= (now >> kShift)) {
        ++result.near_cancels;
      } else if (at - now > milliseconds(2)) {
        ++result.far_cancels;
      }
      q.cancel(victim.id);
      const auto victim_tag = static_cast<std::size_t>(std::get<3>(victim.ref));
      cancelled[victim_tag] = true;
      calls_at_cancel[victim_tag] = key_calls[victim_tag];
      reference.erase(victim.ref);
      forget(std::get<3>(victim.ref));
    } else {
      pop();
      if (::testing::Test::HasFatalFailure()) return result;
    }
    EXPECT_EQ(q.size(), reference.size());
  }
  // Drain the tail: seconds of sparse overflow, lap after lap.
  while (!q.empty()) {
    pop();
    if (::testing::Test::HasFatalFailure()) return result;
  }
  EXPECT_TRUE(reference.empty());
  EXPECT_EQ(q.next_time(), kNoTime);
  // Each lazy key is computed at most once, only for events that met a time
  // tie, and never after the event was cancelled.
  for (std::size_t tag = 0; tag < lazy.size(); ++tag) {
    if (!lazy[tag]) continue;
    EXPECT_LE(key_calls[tag], tied[tag] ? 1 : 0) << "tag " << tag;
    if (cancelled[tag]) {
      EXPECT_EQ(key_calls[tag], calls_at_cancel[tag]) << "tag " << tag;
    }
    if (tied[tag]) ++result.lazy_tied;
  }
  EXPECT_LE(result.key_calls, result.lazy_tied);
  return result;
}

TEST(EventQueueStressTest, CancelChurnIsDeterministic) {
  const std::uint64_t seed = testlib::test_seed(7);
  const ChurnResult a = churn_run(seed);
  const ChurnResult b = churn_run(seed);
  EXPECT_EQ(a.order, b.order)
      << "identical seeds must produce identical pop orders";
  // ~62% of 40k rounds schedule and ~18% cancel, so well over 10k survive.
  EXPECT_GT(a.order.size(), 10'000u);
  EXPECT_GT(a.near_cancels, 100);
  EXPECT_GT(a.far_cancels, 100);
  // The lazy path is exercised: keys computed on ties, skipped elsewhere.
  EXPECT_GT(a.key_calls, 100);
  EXPECT_LT(a.key_calls, a.lazy_events);
}

// Tie-dense churn: events land 2-4 to a nanosecond on the nanoseconds
// around bucket edges and lap ends, so after a bucket moves, sibling groups
// hold 2-4 equal times and moving entries tie with children. Unkeyed,
// keyed, lazily keyed and mail events mix on every such nanosecond, and
// every pop is checked against the (time, key, seq) reference.
TEST(EventQueueStressTest, TieDenseSiblingGroupsPopInOrder) {
  std::mt19937_64 rng(testlib::test_seed(11));
  EventQueue q;
  ChurnResult result;
  std::vector<int> key_calls;  // per tag
  using RefKey = std::tuple<Time, std::uint64_t, std::uint64_t, int>;
  std::set<RefKey> reference;
  std::vector<std::pair<EventId, RefKey>> live;
  std::uint64_t local_seq = 0;
  std::uint64_t mail_seq = 0;
  Time now = 0;
  int tied_pops = 0;  // pops at the previous pop's time
  constexpr Time kBucket = Time{1} << EventQueue::kBucketShift;
  constexpr Time kLap = kBucket * static_cast<Time>(EventQueue::kBuckets);

  const auto pop = [&] {
    ASSERT_FALSE(reference.empty());
    const RefKey expected = *reference.begin();
    EventQueue::Next next = q.take_next();
    next.action();
    ASSERT_EQ(result.order.back(), std::get<3>(expected))
        << "popped out of (time, key, seq) order at t=" << next.at;
    ASSERT_EQ(next.at, std::get<0>(expected));
    if (next.at == now) ++tied_pops;
    now = next.at;
    reference.erase(reference.begin());
    const auto it = std::find_if(live.begin(), live.end(), [&](const auto& l) {
      return std::get<3>(l.second) == std::get<3>(expected);
    });
    *it = live.back();
    live.pop_back();
  };

  for (int round = 0; round < 3'000; ++round) {
    // The next bucket edge, one a few buckets on, or the lap end.
    Time edge;
    switch (rng() % 3) {
      case 0:
        edge = (now / kBucket + 1) * kBucket;
        break;
      case 1:
        edge = (now / kBucket + 2 + static_cast<Time>(rng() % 6)) * kBucket;
        break;
      default:
        edge = (now / kLap + 1) * kLap;
        break;
    }
    for (Time at = std::max(now, edge - 1); at <= edge + 1; ++at) {
      for (auto copies = 2 + rng() % 3; copies > 0; --copies) {
        const int tag = static_cast<int>(key_calls.size());
        key_calls.push_back(0);
        const std::uint64_t key = rng() % 3;
        RefKey ref;
        EventId id;
        switch (rng() % 4) {
          case 0:
            ref = {at, kUnkeyedTieKey, ++local_seq, tag};
            id = q.schedule(at, [&result, tag] { result.order.push_back(tag); });
            break;
          case 1:
            ref = {at, key, ++local_seq, tag};
            id = q.schedule(at, key,
                            [&result, tag] { result.order.push_back(tag); });
            break;
          case 2:
            ref = {at, key, ++local_seq, tag};
            id = q.schedule_keyed(at, LazyKeyed{&result, &key_calls, tag, key});
            break;
          default: {
            const std::uint64_t seq =
                mail_tie_seq(static_cast<std::uint32_t>(rng() % 3), ++mail_seq);
            ref = {at, key, seq, tag};
            id = q.schedule(at, key, seq,
                            [&result, tag] { result.order.push_back(tag); });
            break;
          }
        }
        reference.insert(ref);
        live.emplace_back(id, ref);
      }
    }
    if (rng() % 4 == 0) {
      const std::size_t victim = rng() % live.size();
      q.cancel(live[victim].first);
      reference.erase(live[victim].second);
      live[victim] = live.back();
      live.pop_back();
    }
    for (auto pops = rng() % 14; pops > 0 && !reference.empty(); --pops) {
      pop();
      if (::testing::Test::HasFatalFailure()) return;
    }
    ASSERT_EQ(q.size(), reference.size());
  }
  while (!reference.empty()) {
    pop();
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_TRUE(q.empty());
  // Most pops tie with the one before, and each lazy key is computed once
  // at most.
  EXPECT_GT(tied_pops, static_cast<int>(result.order.size()) / 2);
  EXPECT_LE(*std::max_element(key_calls.begin(), key_calls.end()), 1);
  EXPECT_GT(result.key_calls, 1'000);
}

TEST(EventQueueStressTest, SlotsRecycleInsteadOfGrowing) {
  // Each round re-arms an RTO-style far timer 10 ms out (cancel + schedule)
  // and runs 64 near events. The heap never runs dry within a bucket, so
  // the cancelled timers wait in far buckets; once the first of those
  // buckets come due, they are reaped as fast as they are made, so the slot
  // arena and the heap stay at their high-water marks.
  EventQueue q;
  EventId far_timer = kInvalidEventId;
  constexpr int kRounds = 400;
  constexpr Time kRound = microseconds(100);
  std::size_t warm_slots = 0;
  std::size_t warm_heap = 0;
  std::size_t max_far = 0;
  for (int round = 0; round < kRounds; ++round) {
    const Time base = round * kRound;
    q.cancel(far_timer);
    far_timer = q.schedule(base + milliseconds(10), [] {});
    for (int i = 0; i < 64; ++i) q.schedule(base + i, [] {});
    for (int i = 0; i < 64; ++i) q.take_next().action();
    max_far = std::max(max_far, q.far_size());
    if (round == kRounds / 2) {
      warm_slots = q.slot_capacity();
      warm_heap = q.heap_capacity();
    }
  }
  EXPECT_EQ(q.slot_capacity(), warm_slots);
  EXPECT_EQ(q.heap_capacity(), warm_heap);
  // 64 near events plus at most one timer per round of the 10 ms horizon
  // in flight: bounded by the horizon, not by the 400 rounds.
  EXPECT_LE(q.slot_capacity(), 64u + 2 * (milliseconds(10) / kRound));
  // The timers waited in the far level, most of the horizon's worth at once.
  EXPECT_GT(max_far, milliseconds(10) / kRound / 2);
  // The far timers never come due; every near event ran.
  EXPECT_EQ(q.executed_count(), 64u * kRounds);
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueueTest, HeapEntriesAreSixteenBytes) {
  static_assert(EventQueue::heap_entry_bytes() == 16,
                "a sibling group of four heap entries is 64 bytes");
}

TEST(EventQueueTest, LazyKeysAreComputedOnlyOnTimeTies) {
  EventQueue q;
  ChurnResult result;
  std::vector<int> calls(8, 0);
  // Distinct times: no key is ever needed.
  for (int tag = 0; tag < 3; ++tag) {
    q.schedule_keyed(10 * (tag + 1),
                     LazyKeyed{&result, &calls, tag, std::uint64_t{9}});
  }
  // Three events on one nanosecond: the lazy ones order by key before the
  // unkeyed one, and each key is computed once however often it compares.
  q.schedule(100, [&result] { result.order.push_back(5); });
  q.schedule_keyed(100, LazyKeyed{&result, &calls, 3, std::uint64_t{7}});
  q.schedule_keyed(100, LazyKeyed{&result, &calls, 4, std::uint64_t{2}});
  // A cancelled event is never asked, though it still ties in the heap.
  q.cancel(
      q.schedule_keyed(100, LazyKeyed{&result, &calls, 6, std::uint64_t{1}}));
  q.schedule_keyed(100, LazyKeyed{&result, &calls, 7, std::uint64_t{4}});
  while (!q.empty()) q.take_next().action();
  EXPECT_EQ(result.order, (std::vector<int>{0, 1, 2, 4, 7, 3, 5}));
  EXPECT_EQ(calls, (std::vector<int>{0, 0, 0, 1, 1, 0, 0, 1}));
}

TEST(EventQueueDeathTest, TakeNextOnEmptyQueueAborts) {
  EventQueue q;
  EXPECT_DEATH(q.take_next(), "take_next\\(\\) on an empty event queue");
  const EventId id = q.schedule(5, [] {});
  q.cancel(id);  // a cancelled event is not a live one
  EXPECT_DEATH(q.take_next(), "empty event queue");
}

TEST(EventQueueDeathTest, KeyedScheduleNeedsATieKey) {
  EventQueue q;
  EXPECT_DEATH(q.schedule_keyed(5, [] {}), "no tie_key");
}

// Counts destructions of the one closure that owns the count; moved-from
// husks do not count.
struct CountedAction {
  int* destroyed;
  bool owner = true;

  explicit CountedAction(int* d) : destroyed(d) {}
  CountedAction(CountedAction&& other) noexcept
      : destroyed(other.destroyed), owner(std::exchange(other.owner, false)) {}
  CountedAction& operator=(CountedAction&&) = delete;
  ~CountedAction() {
    if (owner) ++*destroyed;
  }
  void operator()() const {}
};

TEST(EventQueueTest, ActionsAreDestroyedExactlyOnce) {
  static_assert(EventAction::stores_inline<CountedAction>());
  static_assert(!EventAction::moves_by_copy<CountedAction>());
  {
    // Fired: destroyed with the popped event, not before it runs.
    EventQueue q;
    int destroyed = 0;
    q.schedule(5, CountedAction(&destroyed));
    {
      EventQueue::Next next = q.take_next();
      EXPECT_EQ(destroyed, 0);
      next.action();
    }
    EXPECT_EQ(destroyed, 1);
  }
  {
    // Cancelled, near and far: destroyed once each when reaped.
    EventQueue q;
    int near = 0;
    int far = 0;
    q.cancel(q.schedule(5, CountedAction(&near)));
    q.cancel(q.schedule(milliseconds(50), CountedAction(&far)));
    q.schedule(milliseconds(60), [] {});
    q.take_next().action();
    EXPECT_EQ(near, 1);
    EXPECT_EQ(far, 1);
  }
  {
    // Destroyed with the queue while pending, in either level.
    int near = 0;
    int far = 0;
    {
      EventQueue q;
      q.schedule(5, CountedAction(&near));
      q.schedule(seconds(1), CountedAction(&far));
    }
    EXPECT_EQ(near, 1);
    EXPECT_EQ(far, 1);
  }
}

// A trivially copyable action that holds what only its run releases (like
// a delivery's raw packet): drop() releases it if the event dies unfired.
struct DroppableAction {
  int* ran;
  int* dropped;
  void operator()() const { ++*ran; }
  void drop() const { ++*dropped; }
};

TEST(EventQueueTest, OnlyUnfiredEventsAreDropped) {
  static_assert(EventAction::moves_by_copy<DroppableAction>());
  int ran = 0;
  int dropped = 0;
  {
    EventQueue q;
    const DroppableAction action{&ran, &dropped};
    q.schedule(5, DroppableAction(action));                         // fires
    q.cancel(q.schedule(6, DroppableAction(action)));                // near
    q.cancel(q.schedule(milliseconds(50), DroppableAction(action)));  // far
    q.schedule(milliseconds(60), DroppableAction(action));          // fires
    q.schedule(seconds(1), DroppableAction(action));  // pending, far
    q.take_next().action();
    q.take_next().action();  // reaps both cancelled events on the way
    EXPECT_EQ(ran, 2);
    EXPECT_EQ(dropped, 2);
    q.schedule(milliseconds(60) + 1, DroppableAction(action));  // pending, near
  }
  EXPECT_EQ(ran, 2);
  EXPECT_EQ(dropped, 4);
}

TEST(EventQueueTest, TriviallyCopyableActionsMoveByCopy) {
  // Pointer captures move as bytes: no move or destroy call, and the
  // closure still runs intact after the queue relocates it.
  int ran = 0;
  std::uint64_t a = 1, b = 2;
  auto fn = [&ran, pa = &a, pb = &b, c = std::uint64_t{3}] {
    ran += static_cast<int>(*pa + *pb + c);
  };
  static_assert(EventAction::moves_by_copy<decltype(fn)>());
  EventQueue q;
  for (int i = 0; i < 1000; ++i) q.schedule(i % 7, fn);  // arena regrows
  while (!q.empty()) q.take_next().action();
  EXPECT_EQ(ran, 6 * 1000);
}

TEST(EventQueueTest, InlineActionsNeedNoHeap) {
  // The SBO callback type must keep a capture of a few pointers inline;
  // EventQueue relies on this for allocation-free steady-state scheduling.
  int a = 0, b = 0, c = 0;
  auto fn = [pa = &a, pb = &b, pc = &c] { ++*pa, ++*pb, ++*pc; };
  static_assert(EventAction::stores_inline<decltype(fn)>(),
                "three-pointer capture should fit the inline buffer");
  EventAction act(std::move(fn));
  act();
  EXPECT_EQ(a + b + c, 3);
}

}  // namespace
}  // namespace acdc::sim
