// Unit tests for the discrete-event core: ordering, cancellation,
// determinism, the always-on causality check, deadline timers, timer heaps,
// time helpers.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "sim/deadline_timer.h"
#include "sim/event_queue.h"
#include "sim/rng.h"
#include "sim/simulator.h"
#include "sim/time.h"
#include "sim/timer_heap.h"
#include "testlib/seed.h"

namespace acdc::sim {
namespace {

TEST(TimeTest, Literals) {
  EXPECT_EQ(microseconds(1), 1'000);
  EXPECT_EQ(milliseconds(1), 1'000'000);
  EXPECT_EQ(seconds(1), 1'000'000'000);
  EXPECT_EQ(seconds(0.5), 500'000'000);
  EXPECT_DOUBLE_EQ(to_seconds(seconds(2)), 2.0);
  EXPECT_DOUBLE_EQ(to_milliseconds(milliseconds(7)), 7.0);
}

TEST(TimeTest, TransmissionTime) {
  // 1500B at 10Gbps = 1.2us.
  EXPECT_EQ(transmission_time(1500, gigabits_per_second(10)), 1'200);
  // 9000B at 1Gbps = 72us.
  EXPECT_EQ(transmission_time(9000, gigabits_per_second(1)), 72'000);
}

TEST(EventQueueTest, RunsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(30, [&] { order.push_back(3); });
  q.schedule(10, [&] { order.push_back(1); });
  q.schedule(20, [&] { order.push_back(2); });
  while (!q.empty()) q.take_next().action();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, TiesBreakByInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule(5, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.take_next().action();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EventQueueTest, CancelPreventsExecution) {
  EventQueue q;
  bool ran = false;
  EventId id = q.schedule(10, [&] { ran = true; });
  q.schedule(20, [] {});
  q.cancel(id);
  EXPECT_EQ(q.size(), 1u);
  while (!q.empty()) q.take_next().action();
  EXPECT_FALSE(ran);
}

TEST(EventQueueTest, CancelInvalidIsNoop) {
  EventQueue q;
  q.schedule(10, [] {});
  q.cancel(kInvalidEventId);
  q.cancel(999);  // never issued
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueueTest, NextTimeSkipsCancelled) {
  EventQueue q;
  EventId early = q.schedule(10, [] {});
  q.schedule(20, [] {});
  q.cancel(early);
  EXPECT_EQ(q.next_time(), 20);
}

TEST(SimulatorTest, ClockAdvances) {
  Simulator sim;
  Time seen = -1;
  sim.schedule(100, [&] { seen = sim.now(); });
  sim.run();
  EXPECT_EQ(seen, 100);
  EXPECT_EQ(sim.now(), 100);
}

TEST(SimulatorTest, NestedScheduling) {
  Simulator sim;
  int fired = 0;
  std::function<void()> tick = [&] {
    if (++fired < 5) sim.schedule(10, tick);
  };
  sim.schedule(10, tick);
  sim.run();
  EXPECT_EQ(fired, 5);
  EXPECT_EQ(sim.now(), 50);
}

TEST(SimulatorTest, RunUntilStopsAndSetsClock) {
  Simulator sim;
  int fired = 0;
  sim.schedule(10, [&] { ++fired; });
  sim.schedule(100, [&] { ++fired; });
  sim.run_until(50);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 50);
  sim.run_until(200);
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, CancelTimer) {
  Simulator sim;
  bool ran = false;
  EventId id = sim.schedule(10, [&] { ran = true; });
  sim.cancel(id);
  sim.run();
  EXPECT_FALSE(ran);
}

// The causality check must hold in every build, NDEBUG included: the
// calendar files an event by its bucket, so one scheduled into the past
// would run out of order instead of failing.
TEST(SimulatorDeathTest, SchedulingIntoThePastAborts) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  Simulator sim;
  sim.schedule_at(100, [] {});
  sim.run();
  ASSERT_EQ(sim.now(), 100);
  EXPECT_DEATH(sim.schedule_at(50, [] {}), "at=50 now=100");
  EXPECT_DEATH(sim.schedule(-1, [] {}), "at=99 now=100");
  EXPECT_DEATH(sim.schedule_at_keyed(7, 1, [] {}), "at=7 now=100");
  EXPECT_DEATH(sim.schedule_keyed(-100, 1, [] {}), "at=0 now=100");
  EXPECT_DEATH(sim.schedule_at_keyed_seq(99, 1, mail_tie_seq(0, 1), [] {}),
               "at=99 now=100");
  // The present is not the past.
  sim.schedule_at(100, [] {});
  sim.schedule(0, [] {});
  sim.run();
  EXPECT_EQ(sim.now(), 100);
}

// Test owner for DeadlineTimer: records the time of every fire.
struct FireLog {
  Simulator* sim = nullptr;
  std::vector<Time> fires;
  static void on_fire(void* self) {
    auto* log = static_cast<FireLog*>(self);
    log->fires.push_back(log->sim->now());
  }
};

TEST(DeadlineTimerTest, ReArmLaterFiresOnceAtLastDeadline) {
  Simulator sim;
  FireLog log{&sim, {}};
  DeadlineTimer timer(&sim, &log, &FireLog::on_fire);
  timer.arm(100);
  sim.schedule(40, [&] { timer.arm(100); });  // deadline 140
  sim.schedule(90, [&] { timer.arm(60); });   // deadline 150
  EXPECT_TRUE(timer.armed());
  sim.run();
  EXPECT_EQ(log.fires, (std::vector<Time>{150}));
  EXPECT_FALSE(timer.armed());
  // Two script events, the fire at 150, and one intermediate fire at 100
  // where the pending event found the deadline moved and re-scheduled.
  EXPECT_EQ(sim.executed_events(), 4u);
}

TEST(DeadlineTimerTest, ReArmEarlierFiresOnceAtEarlierDeadline) {
  Simulator sim;
  FireLog log{&sim, {}};
  DeadlineTimer timer(&sim, &log, &FireLog::on_fire);
  timer.arm(milliseconds(200));
  sim.schedule(10, [&] { timer.arm(20); });  // deadline 30
  sim.run();
  EXPECT_EQ(log.fires, (std::vector<Time>{30}));
  // The 200 ms event was cancelled, not left to fire as a no-op.
  EXPECT_EQ(sim.executed_events(), 2u);
  EXPECT_EQ(sim.now(), 30);
}

TEST(DeadlineTimerTest, DisarmCancelsAndReArmWorks) {
  Simulator sim;
  FireLog log{&sim, {}};
  DeadlineTimer timer(&sim, &log, &FireLog::on_fire);
  timer.arm(100);
  sim.schedule(10, [&] { timer.arm(200); });  // moved: stale event pending
  sim.schedule(20, [&] {
    timer.disarm();
    EXPECT_FALSE(timer.armed());
    timer.disarm();  // idempotent
  });
  sim.run();
  EXPECT_TRUE(log.fires.empty());
  EXPECT_EQ(sim.executed_events(), 2u);
  timer.arm(5);
  sim.run();
  EXPECT_EQ(log.fires, (std::vector<Time>{25}));
}

TEST(DeadlineTimerTest, HandlerMayReArm) {
  Simulator sim;
  struct Backoff {
    Simulator* sim;
    DeadlineTimer* timer = nullptr;
    std::vector<Time> fires;
  } owner{&sim, nullptr, {}};
  DeadlineTimer timer(&sim, &owner, [](void* self) {
    auto* o = static_cast<Backoff*>(self);
    o->fires.push_back(o->sim->now());
    if (o->fires.size() < 4) o->timer->arm(10 << o->fires.size());
  });
  owner.timer = &timer;
  timer.arm(10);
  sim.run();
  EXPECT_EQ(owner.fires, (std::vector<Time>{10, 30, 70, 150}));
}

TEST(DeadlineTimerTest, DestroyedWhilePendingNeverFires) {
  Simulator sim;
  FireLog log{&sim, {}};
  {
    DeadlineTimer timer(&sim, &log, &FireLog::on_fire);
    timer.arm(100);
    timer.arm(200);  // stale event at 100 still pending
  }
  EXPECT_EQ(sim.next_event_time(), kNoTime);
  sim.run();
  EXPECT_TRUE(log.fires.empty());
  EXPECT_EQ(sim.executed_events(), 0u);
}

// Same-tick order against a reference: one Simulator drives a DeadlineTimer,
// another the cancel + schedule bookkeeping it replaces, under the same
// random script of re-arms (later, earlier, equal), disarms and third-party
// events landing on the very nanosecond of a deadline, scheduled between
// arms. Every execution must interleave identically.
class TimerScript {
 public:
  TimerScript(bool use_deadline_timer, std::uint64_t seed)
      : use_timer_(use_deadline_timer),
        rng_(seed),
        timer_(&sim_, this, [](void* self) {
          static_cast<TimerScript*>(self)->on_fire();
        }) {}

  std::vector<std::string> run() {
    for (int i = 0; i < 400; ++i) {
      sim_.schedule_at(static_cast<Time>(rng_.uniform_int(0, 20'000)),
                       [this, i] { step(i); });
    }
    sim_.run();
    return log_;
  }

 private:
  void note(const std::string& what) {
    log_.push_back(std::to_string(sim_.now()) + " " + what);
  }

  void arm(Time delay) {
    if (use_timer_) {
      timer_.arm(delay);
    } else {
      sim_.cancel(ref_id_);
      ref_id_ = sim_.schedule(delay, [this] {
        ref_id_ = kInvalidEventId;
        on_fire();
      });
    }
    deadline_ = sim_.now() + delay;
  }

  void disarm() {
    if (use_timer_) {
      timer_.disarm();
    } else {
      sim_.cancel(ref_id_);
      ref_id_ = kInvalidEventId;
    }
    deadline_ = kNoTime;
  }

  void on_fire() {
    note("fire");
    deadline_ = kNoTime;
    if (rng_.chance(0.3)) arm(rng_.uniform_int(0, 500));
  }

  void step(int i) {
    note("step " + std::to_string(i));
    const int op = static_cast<int>(rng_.uniform_int(0, 9));
    if (op < 4) {
      arm(rng_.uniform_int(0, 3000));  // later or earlier
    } else if (op < 6 && deadline_ != kNoTime) {
      arm(deadline_ - sim_.now());  // same deadline, newer seq
    } else if (op < 7) {
      disarm();
    }
    // A third party lands on the deadline's nanosecond, between arms.
    if (deadline_ != kNoTime && rng_.chance(0.6)) {
      sim_.schedule_at(deadline_,
                       [this, i] { note("peer " + std::to_string(i)); });
    }
  }

  bool use_timer_;
  Rng rng_;
  Simulator sim_;
  DeadlineTimer timer_;
  EventId ref_id_ = kInvalidEventId;
  Time deadline_ = kNoTime;
  std::vector<std::string> log_;
};

TEST(DeadlineTimerTest, SameTickOrderMatchesCancelAndSchedule) {
  const std::uint64_t seed = testlib::test_seed(20160822);
  for (std::uint64_t s = seed; s < seed + 20; ++s) {
    const std::vector<std::string> timer = TimerScript(true, s).run();
    const std::vector<std::string> reference = TimerScript(false, s).run();
    ASSERT_EQ(timer, reference) << "seed " << s;
    ASSERT_GT(timer.size(), 400u);
  }
}

// Test owner for TimerHeap: records "time:tag" for every fire.
struct TagLog {
  Simulator* sim = nullptr;
  std::vector<std::string> fires;
  static void on_fire(void* self, std::uint64_t tag) {
    auto* log = static_cast<TagLog*>(self);
    log->fires.push_back(std::to_string(log->sim->now()) + ":" +
                         std::to_string(tag));
  }
};

TEST(TimerHeapTest, FiresByDeadlineThenArmOrderFromOneQueuePosition) {
  Simulator sim;
  TagLog log{&sim, {}};
  TimerHeap heap(&sim, &log, &TagLog::on_fire);
  heap.arm(300, 1);
  heap.arm(100, 2);  // new earliest: the event at 300 is cancelled
  heap.arm(100, 3);  // equal deadline, later arm
  heap.arm(0, 4);    // new earliest again
  heap.arm(500, 5);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run();
  EXPECT_EQ(log.fires, (std::vector<std::string>{"0:4", "100:2", "100:3",
                                                 "300:1", "500:5"}));
  // One event per timer; the two superseded earliest events never ran.
  EXPECT_EQ(sim.executed_events(), 5u);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(TimerHeapTest, DestroyedWhilePendingNeverFires) {
  Simulator sim;
  TagLog log{&sim, {}};
  {
    TimerHeap heap(&sim, &log, &TagLog::on_fire);
    heap.arm(100, 1);
    heap.arm(50, 2);  // the event at 100 stays behind as a tombstone
    heap.arm(200, 3);
  }
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.next_event_time(), kNoTime);
  sim.run();
  EXPECT_TRUE(log.fires.empty());
  EXPECT_EQ(sim.executed_events(), 0u);
}

// Same-tick order against a reference: one Simulator arms its timers
// through a single TimerHeap, another schedules one plain event per timer,
// under the same random script. Unkeyed and keyed third-party events arm
// timers (zero delays, deadlines equal to an armed one, fresh earliest
// ones), land on armed deadlines' nanoseconds and log what they see, and
// fired timers re-arm from inside the handler. Every execution must
// interleave identically, with the same executed-event count.
class HeapScript {
 public:
  HeapScript(bool use_heap, std::uint64_t seed)
      : use_heap_(use_heap),
        rng_(seed),
        heap_(&sim_, this, [](void* self, std::uint64_t tag) {
          static_cast<HeapScript*>(self)->on_fire(tag);
        }) {}

  std::vector<std::string> run() {
    for (int i = 0; i < 300; ++i) {
      const auto at = static_cast<Time>(rng_.uniform_int(0, 20'000));
      if (rng_.chance(0.3)) {
        const auto key = static_cast<std::uint64_t>(rng_.uniform_int(0, 3));
        sim_.schedule_at_keyed(at, key, [this, i] { step(i, "keyed"); });
      } else {
        sim_.schedule_at(at, [this, i] { step(i, "step"); });
      }
    }
    sim_.run();
    note("executed " + std::to_string(sim_.executed_events()));
    return log_;
  }

 private:
  void note(const std::string& what) {
    log_.push_back(std::to_string(sim_.now()) + " " + what);
  }

  void arm(Time delay) {
    const std::uint64_t tag = next_tag_++;
    if (use_heap_) {
      heap_.arm(delay, tag);
    } else {
      sim_.schedule(delay, [this, tag] { on_fire(tag); });
    }
    deadlines_.push_back(sim_.now() + delay);
  }

  void on_fire(std::uint64_t tag) {
    note("fire " + std::to_string(tag));
    if (rng_.chance(0.3)) {
      arm(rng_.chance(0.3) ? 0 : rng_.uniform_int(0, 500));
    }
  }

  void step(int i, const char* kind) {
    note(std::string(kind) + " " + std::to_string(i));
    const int arms = static_cast<int>(rng_.uniform_int(0, 3));
    for (int a = 0; a < arms; ++a) {
      const int op = static_cast<int>(rng_.uniform_int(0, 9));
      if (op < 2) {
        arm(0);
      } else if (op < 4 && !deadlines_.empty()) {
        // An earlier arm's deadline, or now once that has passed.
        const Time d = deadlines_[static_cast<std::size_t>(rng_.uniform_int(
            0, static_cast<std::int64_t>(deadlines_.size()) - 1))];
        arm(d >= sim_.now() ? d - sim_.now() : 0);
      } else if (op < 8) {
        arm(rng_.uniform_int(0, 3000));
      } else {
        arm(rng_.uniform_int(10'000, 40'000));
      }
    }
    // A third party lands on the latest deadline's nanosecond.
    if (!deadlines_.empty() && deadlines_.back() >= sim_.now() &&
        rng_.chance(0.5)) {
      sim_.schedule_at(deadlines_.back(),
                       [this, i] { note("peer " + std::to_string(i)); });
    }
  }

  bool use_heap_;
  Rng rng_;
  Simulator sim_;
  TimerHeap heap_;
  std::uint64_t next_tag_ = 0;
  std::vector<Time> deadlines_;
  std::vector<std::string> log_;
};

TEST(TimerHeapTest, SameTickOrderMatchesOneEventPerTimer) {
  const std::uint64_t seed = testlib::test_seed(20160822);
  for (std::uint64_t s = seed; s < seed + 20; ++s) {
    const std::vector<std::string> heap = HeapScript(true, s).run();
    const std::vector<std::string> reference = HeapScript(false, s).run();
    ASSERT_EQ(heap, reference) << "seed " << s;
    ASSERT_GT(heap.size(), 600u);
  }
}

TEST(RngTest, DeterministicAcrossInstances) {
  const std::uint64_t seed = testlib::test_seed(42);
  Rng a(seed);
  Rng b(seed);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.uniform_int(0, 1'000'000), b.uniform_int(0, 1'000'000));
  }
}

TEST(RngTest, UniformIntInRange) {
  Rng rng(testlib::test_seed(7));
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(5, 10);
    EXPECT_GE(v, 5);
    EXPECT_LE(v, 10);
  }
}

TEST(RngTest, ChanceExtremes) {
  Rng rng(testlib::test_seed(7));
  EXPECT_FALSE(rng.chance(0.0));
  EXPECT_TRUE(rng.chance(1.0));
}

TEST(RngTest, ExponentialMean) {
  Rng rng(testlib::test_seed(7));
  double sum = 0;
  constexpr int kN = 20'000;
  for (int i = 0; i < kN; ++i) sum += rng.exponential(100.0);
  EXPECT_NEAR(sum / kN, 100.0, 3.0);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(testlib::test_seed(7));
  std::vector<int> v{1, 2, 3, 4, 5};
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, (std::vector<int>{1, 2, 3, 4, 5}));
}

}  // namespace
}  // namespace acdc::sim
