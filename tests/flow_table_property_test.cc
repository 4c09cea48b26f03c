// Property tests for the flow table's removal machinery: GC expiry
// boundaries (fin_linger vs idle_timeout are strict), generation handles
// never resurrecting a removed flow (erase, GC, cap-eviction, rehash), LRU
// eviction always picking the oldest-idle entry (checked against a shadow
// model under a randomized op mix), every flow landing in the slot a
// golden trace pins, and the AcdcCore per-direction lookup caches never
// serving a stale record after GC or cap-eviction.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "acdc/core.h"
#include "acdc/flow_table.h"
#include "sim/hash.h"
#include "sim/rng.h"
#include "sim/simulator.h"
#include "testlib/seed.h"

namespace acdc::vswitch {
namespace {

FlowKey key_n(std::uint16_t port) {
  return FlowKey{net::make_ip(10, 0, 0, 1), net::make_ip(10, 0, 0, 2), port,
                 5000};
}

constexpr sim::Time kIdleTimeout = sim::seconds(60);
constexpr sim::Time kFinLinger = sim::seconds(1);

TEST(FlowTableGc, FinLingerAndIdleTimeoutBoundariesAreStrict) {
  FlowTable t;
  const sim::Time now = sim::seconds(100);

  // Exactly at the boundary an entry survives; one nanosecond past it dies.
  FlowRef fin_at = t.find_or_create(key_n(1), 0);
  fin_at.hot->fin_seen = true;
  fin_at.hot->last_activity = now - kFinLinger;  // idle == fin_linger: keep

  FlowRef fin_past = t.find_or_create(key_n(2), 0);
  fin_past.hot->fin_seen = true;
  fin_past.hot->last_activity = now - kFinLinger - 1;  // idle > linger: drop

  FlowRef live_at = t.find_or_create(key_n(3), 0);
  live_at.hot->last_activity = now - kIdleTimeout;  // idle == timeout: keep

  FlowRef live_past = t.find_or_create(key_n(4), 0);
  live_past.hot->last_activity = now - kIdleTimeout - 1;  // drop

  // A FIN-marked entry past idle_timeout dies even if fin_linger were huge.
  FlowRef fin_ancient = t.find_or_create(key_n(5), 0);
  fin_ancient.hot->fin_seen = true;
  fin_ancient.hot->last_activity = now - kIdleTimeout - 1;

  EXPECT_EQ(t.collect_garbage(now, kIdleTimeout, kFinLinger), 3u);
  EXPECT_TRUE(t.find(key_n(1))) << "idle == fin_linger must survive";
  EXPECT_FALSE(t.find(key_n(2)));
  EXPECT_TRUE(t.find(key_n(3))) << "idle == idle_timeout must survive";
  EXPECT_FALSE(t.find(key_n(4)));
  EXPECT_FALSE(t.find(key_n(5)));
  EXPECT_EQ(t.stats().gc_removed, 3);
  EXPECT_EQ(t.stats().removals, 3);
}

TEST(FlowTableGc, LiveEntryIgnoresFinLinger) {
  FlowTable t;
  const sim::Time now = sim::seconds(100);
  FlowRef live = t.find_or_create(key_n(1), 0);
  live.hot->last_activity = now - kFinLinger - 1;  // past linger, no FIN
  EXPECT_EQ(t.collect_garbage(now, kIdleTimeout, kFinLinger), 0u);
  EXPECT_TRUE(t.find(key_n(1)));
}

// The generation contract that replaced the whole-table version counter:
// a handle issued for a flow deref()s successfully for exactly as long as
// that flow lives, and every removal path — erase, GC, cap-eviction — kills
// it permanently. Re-creating the same key mints a new generation, so an
// old handle can never alias the new incarnation.
TEST(FlowTableHandles, EveryRemovalPathKillsTheHandleForever) {
  FlowTable t;

  // erase().
  FlowRef a = t.find_or_create(key_n(1), 0);
  ASSERT_TRUE(a);
  EXPECT_TRUE(a.handle.valid());
  EXPECT_TRUE(t.deref(a.handle));
  ASSERT_TRUE(t.erase(key_n(1)));
  EXPECT_FALSE(t.deref(a.handle)) << "erase must invalidate the handle";

  // Re-create the same key: new generation, old handle stays dead.
  FlowRef a2 = t.find_or_create(key_n(1), 0);
  ASSERT_TRUE(a2);
  EXPECT_TRUE(a2.created);
  EXPECT_NE(a2.handle.gen, a.handle.gen);
  EXPECT_FALSE(t.deref(a.handle))
      << "a stale handle must never resurrect onto the new incarnation";
  EXPECT_TRUE(t.deref(a2.handle));

  // GC.
  FlowRef b = t.find_or_create(key_n(2), 0);
  const FlowHandle hb = b.handle;
  b.hot->last_activity = 0;
  EXPECT_GE(t.collect_garbage(sim::seconds(120), kIdleTimeout, kFinLinger),
            1u);
  EXPECT_FALSE(t.deref(hb)) << "GC must invalidate the handle";

  // Cap-eviction.
  FlowTable capped;
  capped.set_limit(1);
  const FlowHandle hv = capped.find_or_create(key_n(10), 0).handle;
  FlowRef n = capped.find_or_create(key_n(11), sim::seconds(1));
  ASSERT_TRUE(n);
  EXPECT_TRUE(n.created);
  EXPECT_EQ(capped.stats().evictions, 1);
  EXPECT_FALSE(capped.deref(hv)) << "eviction must invalidate the handle";
  EXPECT_TRUE(capped.deref(n.handle));

  // A default-constructed handle never matches anything.
  EXPECT_FALSE(t.deref(FlowHandle{}));
}

// Growth rehash moves slot words across slots; every handle issued before
// the rehash must either still deref() to its own key (same generation,
// possibly a different slot internally) or — if the slot moved — fail
// cleanly. With generation preservation the former holds for live flows
// only when the handle's slot happens to survive; the contract the callers
// rely on is weaker and is what we pin here: deref() never returns a
// *different* flow's record, and removed flows stay dead across rehashes.
TEST(FlowTableHandles, RehashNeverMisdirectsAHandle) {
  FlowTable t;
  std::vector<FlowHandle> handles;
  std::vector<std::uint16_t> ports;
  // Blow well past the initial capacity so several growth rehashes happen.
  for (std::uint16_t p = 1; p <= 500; ++p) {
    FlowRef f = t.find_or_create(key_n(p), p);
    ASSERT_TRUE(f);
    handles.push_back(f.handle);
    ports.push_back(p);
  }
  EXPECT_GT(t.stats().rehashes, 0);
  EXPECT_EQ(t.size(), 500u);

  std::size_t live = 0;
  for (std::size_t i = 0; i < handles.size(); ++i) {
    FlowRef f = t.deref(handles[i]);
    if (f) {
      ++live;
      EXPECT_EQ(f.key->src_port, ports[i])
          << "a surviving handle must point at its own flow";
    }
  }
  // Every flow is still findable by key regardless of what the relocation
  // did to retained handles.
  for (std::uint16_t p = 1; p <= 500; ++p) {
    EXPECT_TRUE(t.find(key_n(p)));
  }
  // Erase half, rehash again by inserting more, and confirm the erased
  // handles stay dead.
  std::vector<FlowHandle> erased;
  for (std::uint16_t p = 1; p <= 250; ++p) {
    erased.push_back(t.find(key_n(p)).handle);
    ASSERT_TRUE(t.erase(key_n(p)));
  }
  for (std::uint16_t p = 501; p <= 900; ++p) {
    ASSERT_TRUE(t.find_or_create(key_n(p), p));
  }
  for (const FlowHandle& h : erased) {
    EXPECT_FALSE(t.deref(h)) << "an erased flow must stay dead across rehash";
  }
  (void)live;
}

// Randomized op mix against a shadow model: after every operation the
// table's membership, size bound, eviction victims and oldest() record
// must agree with the model. A retained handle per resident flow either
// derefs to exactly that flow or fails cleanly — removals move
// neighboring slot words (backward-shift deletion), which retires the
// moved word's old slot the same way a rehash does, and the holder
// re-acquires by key like the AcdcCore direction caches do. Once the
// model says a flow is gone, its handle must never deref again.
TEST(FlowTableProperty, RandomOpMixMatchesShadowModel) {
  constexpr std::size_t kCap = 8;
  constexpr std::uint16_t kPorts = 64;

  FlowTable t;
  t.set_limit(kCap);

  struct Shadow {
    sim::Time last = 0;
    bool fin = false;
    FlowHandle handle{};
  };
  std::map<std::uint16_t, Shadow> model;
  // Handles of flows the model has removed; they must never deref again.
  std::vector<FlowHandle> graveyard;

  sim::Rng rng(testlib::test_seed(0xF70A));
  sim::Time now = 0;
  for (int step = 0; step < 4000; ++step) {
    now += rng.uniform_int(1, 4);  // strictly increasing: no idle ties
    const auto port =
        static_cast<std::uint16_t>(rng.uniform_int(0, kPorts - 1));
    const FlowKey key = key_n(port);
    const std::int64_t op = rng.uniform_int(0, 99);

    if (op < 45) {  // find_or_create
      const bool existed = model.count(port) > 0;
      std::uint16_t victim = 0;
      bool evicts = false;
      if (!existed && model.size() == kCap) {
        evicts = true;
        victim = std::min_element(model.begin(), model.end(),
                                  [](const auto& a, const auto& b) {
                                    return a.second.last < b.second.last;
                                  })
                     ->first;
      }
      FlowRef res = t.find_or_create(key, now);
      ASSERT_TRUE(res);
      EXPECT_EQ(res.created, !existed);
      if (existed) {
        EXPECT_EQ(res.handle, model[port].handle)
            << "a hit must return the incumbent generation";
      } else {
        if (evicts) {
          graveyard.push_back(model[victim].handle);
          model.erase(victim);
          EXPECT_FALSE(t.find(key_n(victim)))
              << "eviction must pick the oldest-idle entry";
        }
        model[port] = Shadow{now, false, res.handle};
      }
    } else if (op < 70) {  // touch
      FlowRef e = t.find(key);
      ASSERT_EQ(static_cast<bool>(e), model.count(port) > 0);
      if (e) {
        t.touch(e, now);
        model[port].last = now;
      }
    } else if (op < 80) {  // mark FIN
      FlowRef e = t.find(key);
      if (e) {
        e.hot->fin_seen = true;
        model[port].fin = true;
      }
    } else if (op < 90) {  // erase
      const bool existed = model.count(port) > 0;
      if (existed) graveyard.push_back(model[port].handle);
      EXPECT_EQ(t.erase(key), existed);
      model.erase(port);
    } else {  // GC with a randomly tight horizon
      const sim::Time idle_timeout = rng.uniform_int(100, 300);
      const sim::Time fin_linger = rng.uniform_int(5, 30);
      std::size_t expected = 0;
      for (auto it = model.begin(); it != model.end();) {
        const sim::Time idle = now - it->second.last;
        if ((it->second.fin && idle > fin_linger) || idle > idle_timeout) {
          graveyard.push_back(it->second.handle);
          it = model.erase(it);
          ++expected;
        } else {
          ++it;
        }
      }
      EXPECT_EQ(t.collect_garbage(now, idle_timeout, fin_linger), expected);
    }

    // Structural invariants after every op.
    ASSERT_EQ(t.size(), model.size());
    ASSERT_LE(t.size(), kCap);
    // The sweep (for_each, and GC above) finds live slots by control byte
    // alone; it must visit exactly the model's live keys, each once.
    std::vector<std::uint16_t> visited;
    t.for_each([&](const FlowRef& f) {
      EXPECT_TRUE(f.handle.valid());
      visited.push_back(f.key->src_port);
    });
    std::sort(visited.begin(), visited.end());
    std::vector<std::uint16_t> live;
    for (const auto& entry : model) live.push_back(entry.first);
    ASSERT_EQ(visited, live) << "for_each must visit exactly the live flows";
    for (auto& [p, shadow] : model) {
      FlowRef f = t.deref(shadow.handle);
      if (f) {
        EXPECT_EQ(f.key->src_port, p)
            << "a live handle must deref to its own flow, never another's";
      } else {
        // A removal back-shifted this flow's word into a new slot; the handle
        // dies (like across a rehash) and the holder re-probes by key.
        FlowRef again = t.find(key_n(p));
        ASSERT_TRUE(again) << "resident flow must stay findable by key";
        shadow.handle = again.handle;
      }
    }
    if (!model.empty()) {
      const auto oldest = std::min_element(
          model.begin(), model.end(), [](const auto& a, const auto& b) {
            return a.second.last < b.second.last;
          });
      FlowRef head = t.oldest();
      ASSERT_TRUE(head);
      EXPECT_EQ(head.key->src_port, oldest->first)
          << "LRU head must be the oldest-idle entry";
    } else {
      EXPECT_FALSE(t.oldest());
    }
  }

  // No removed flow ever resurrects — even after thousands of reuses of the
  // same 64-key space (slots get recycled constantly at cap 8).
  for (const FlowHandle& h : graveyard) {
    ASSERT_FALSE(t.deref(h)) << "a removed flow's handle must stay dead";
  }

  // The mix must actually have exercised every removal path.
  EXPECT_GT(t.stats().evictions, 0);
  EXPECT_GT(t.stats().gc_removed, 0);
  EXPECT_GT(t.stats().removals, t.stats().gc_removed);
}

// Slot-level golden. The shadow model above checks membership and order,
// not placement: it accepts any slot a flow lands in. Yet slot order is
// observable (for_each and the GC sweep in it, and a handle derefs only
// while its flow holds the slot it was issued for), and end to end only
// the perfbench digests would catch a moved flow. This folds a fixed op
// mix's every returned slot and generation, each retained handle's deref
// outcome after every operation, the sweep order after each GC, the LRU
// head and the final stats into one FNV-1a digest. The constant was
// captured from the table that kept each record in its hash slot, so a
// layout change that must not move a flow fails here first.
class SlotTrace {
 public:
  void fold(std::uint64_t v) { h_ = sim::fnv1a_word(h_, v); }
  void fold(const FlowHandle& h) {
    fold(h.slot);
    fold(h.gen);
  }
  void fold(const FlowTable::Stats& s) {
    for (const std::int64_t v : {s.lookups, s.hits, s.inserts, s.removals,
                                 s.gc_removed, s.evictions, s.rehashes}) {
      fold(static_cast<std::uint64_t>(v));
    }
  }
  std::uint64_t digest() const { return h_; }

 private:
  std::uint64_t h_ = sim::kTupleHashSeed;  // the golden's start
};

// A portable generator (splitmix64), so the golden holds on any standard
// library; sim::Rng's distributions are implementation-defined.
class SplitMix {
 public:
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  std::uint64_t below(std::uint64_t n) { return next() % n; }

 private:
  std::uint64_t s_ = 0x5107'7ACEull;
};

FlowKey trace_key(std::uint32_t i) {
  return FlowKey{net::make_ip(10, 0, static_cast<std::uint8_t>(i >> 8),
                              static_cast<std::uint8_t>(i)),
                 net::make_ip(10, 1, 0, 1),
                 static_cast<std::uint16_t>(1024 + i * 7), 80};
}

// Runs `steps` operations from one op mix over `t` and folds what the
// table shows. Shares out of 100: find_or_create up to `create`, touch up
// to `touch`, FIN mark up to `fin`, key erase up to `erase`, GC above.
struct OpMix {
  std::uint32_t keys;
  int create, touch, fin, erase;
  sim::Time idle_lo, idle_hi;
};

void run_slot_trace(FlowTable& t, const OpMix& mix, int steps,
                    SplitMix& rng, SlotTrace& trace) {
  constexpr std::size_t kHeld = 32;
  std::vector<FlowHandle> held;  // ring of the latest handles issued
  std::size_t next_held = 0;
  const auto hold = [&](const FlowHandle& h) {
    if (held.size() < kHeld) {
      held.push_back(h);
    } else {
      held[next_held++ % kHeld] = h;
    }
  };
  sim::Time now = 0;
  for (int step = 0; step < steps; ++step) {
    now += 1 + static_cast<sim::Time>(rng.below(4));
    const FlowKey key = trace_key(static_cast<std::uint32_t>(
        rng.below(mix.keys)));
    const auto op = static_cast<int>(rng.below(100));
    if (op < mix.create) {
      const FlowRef f = t.find_or_create(key, now);
      trace.fold(f.handle);
      trace.fold(f.created ? 1 : 0);
      hold(f.handle);
    } else if (op < mix.touch) {
      const FlowRef f = t.find(key);
      trace.fold(f.handle);
      if (f) {
        t.touch(f, now);
        hold(f.handle);
      }
    } else if (op < mix.fin) {
      const FlowRef f = t.find(key);
      trace.fold(f.handle);
      if (f) f.hot->fin_seen = true;
    } else if (op < mix.erase) {
      trace.fold(t.erase(key) ? 1 : 0);
    } else {
      const sim::Time idle =
          mix.idle_lo +
          static_cast<sim::Time>(rng.below(
              static_cast<std::uint64_t>(mix.idle_hi - mix.idle_lo)));
      const sim::Time linger = idle / 16;
      trace.fold(t.collect_garbage(now, idle, linger));
      t.for_each([&](const FlowRef& f) { trace.fold(f.handle); });
    }
    for (const FlowHandle& h : held) trace.fold(t.deref(h) ? 1 : 0);
    trace.fold(t.oldest().handle);
    trace.fold(t.size());
  }
  trace.fold(t.stats());
  trace.fold(t.capacity());
}

TEST(FlowTableLayout, SeededOpMixMatchesParentSlotTrace) {
  SplitMix rng;
  SlotTrace trace;

  // Capped at 100 (128 slots): inserts past the cap evict, and a 78% load
  // makes long chains for backward shifts to walk.
  FlowTable capped;
  capped.set_limit(100);
  run_slot_trace(capped, OpMix{400, 55, 75, 83, 95, 400, 1600}, 6000, rng,
                 trace);
  EXPECT_GT(capped.stats().evictions, 0);
  EXPECT_GT(capped.stats().gc_removed, 0);
  EXPECT_EQ(capped.stats().rehashes, 0);

  // Unbounded, grown from 64 slots through at least three rehashes.
  FlowTable grown;
  run_slot_trace(grown, OpMix{1200, 70, 80, 85, 95, 3000, 6000}, 3000, rng,
                 trace);
  EXPECT_GE(grown.stats().rehashes, 3);
  EXPECT_GT(grown.stats().gc_removed, 0);

  EXPECT_EQ(trace.digest(), 0xb4950a8933d9d893ull)
      << "slot trace moved: 0x" << std::hex << trace.digest();
}

class FlowCacheEvictionTest : public ::testing::Test {
 protected:
  FlowCacheEvictionTest() { core_.sim = &sim_; }

  sim::Simulator sim_;
  AcdcCore core_;
};

TEST_F(FlowCacheEvictionTest, CapEvictionInvalidatesCachedEntry) {
  core_.table.set_limit(2);
  const FlowKey k1 = key_n(1);
  core_.entry(k1, AcdcCore::kCacheSndEgress);
  core_.entry(k1, AcdcCore::kCacheSndEgress);  // cached in the egress slot

  // Fill to the cap and one past it through a different slot; k1 is the
  // oldest-idle entry and gets evicted.
  core_.entry(key_n(2), AcdcCore::kCacheSndIngressAck);
  core_.entry(key_n(3), AcdcCore::kCacheSndIngressAck);
  ASSERT_EQ(core_.table.stats().evictions, 1);
  ASSERT_FALSE(core_.table.find(k1));

  // The egress slot still holds the dead handle, but the generation check
  // must force a re-lookup that re-creates the entry.
  const std::int64_t misses = core_.stats.flow_cache_misses;
  FlowRef fresh = core_.entry(k1, AcdcCore::kCacheSndEgress);
  ASSERT_TRUE(fresh);
  EXPECT_GT(core_.stats.flow_cache_misses, misses)
      << "cap-eviction must invalidate the cache, not serve the dead entry";
  EXPECT_EQ(core_.table.find(k1).handle, fresh.handle);
  EXPECT_LE(core_.table.size(), 2u);
}

TEST_F(FlowCacheEvictionTest, GcNeverLeavesStaleCacheAcrossAllSlots) {
  // Stamp all four direction slots, GC everything, then verify each slot
  // re-looks-up rather than serving a dead record.
  const FlowKey keys[] = {key_n(1), key_n(2), key_n(3), key_n(4)};
  const int slots[] = {AcdcCore::kCacheSndEgress,
                       AcdcCore::kCacheSndIngressAck,
                       AcdcCore::kCacheRcvIngressData,
                       AcdcCore::kCacheRcvEgressAck};
  for (int i = 0; i < 4; ++i) core_.entry(keys[i], slots[i]);
  for (int i = 0; i < 4; ++i) core_.entry(keys[i], slots[i]);  // stamp caches
  ASSERT_EQ(core_.table.collect_garbage(sim::seconds(120), kIdleTimeout,
                                        kFinLinger),
            4u);
  const std::int64_t misses = core_.stats.flow_cache_misses;
  for (int i = 0; i < 4; ++i) {
    FlowRef e = core_.entry(keys[i], slots[i]);
    ASSERT_TRUE(e);
    EXPECT_EQ(core_.table.find(keys[i]).handle, e.handle);
  }
  EXPECT_GE(core_.stats.flow_cache_misses - misses, 4);
}

}  // namespace
}  // namespace acdc::vswitch
