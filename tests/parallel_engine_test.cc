// Unit and integration tests for the sharded parallel simulation engine:
// SPSC mailbox semantics, the spin barrier, the topology partitioner, the
// conservative executor on hand-built shards, and Scenario::enable_parallel
// end to end (including the serial fallbacks).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "exp/dumbbell.h"
#include "exp/leaf_spine.h"
#include "exp/partition.h"
#include "exp/star.h"
#include "sim/parallel/barrier.h"
#include "sim/parallel/executor.h"
#include "sim/parallel/spsc_mailbox.h"
#include "sim/simulator.h"

namespace acdc {
namespace {

using sim::par::CrossShardMsg;
using sim::par::Mailbox;
using sim::par::ParallelExecutor;
using sim::par::SpinBarrier;

TEST(SpscMailboxTest, DeliversInOrderWithSequenceNumbers) {
  Mailbox mb(0, 1);
  for (int i = 0; i < 1000; ++i) {
    mb.send(sim::Time{i}, nullptr, nullptr, nullptr,
            reinterpret_cast<void*>(static_cast<std::intptr_t>(i)));
  }
  std::vector<CrossShardMsg> got;
  EXPECT_EQ(mb.drain(got), 1000u);
  ASSERT_EQ(got.size(), 1000u);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(got[static_cast<std::size_t>(i)].at, sim::Time{i});
    EXPECT_EQ(got[static_cast<std::size_t>(i)].seq,
              static_cast<std::uint64_t>(i));
  }
  // Drained queue stays usable and sequence numbers keep rising.
  mb.send(7, nullptr, nullptr, nullptr, nullptr);
  got.clear();
  EXPECT_EQ(mb.drain(got), 1u);
  EXPECT_EQ(got[0].seq, 1000u);
}

TEST(SpscMailboxTest, CrossThreadHandoff) {
  Mailbox mb(0, 1);
  constexpr int kMessages = 50'000;  // crosses many 256-entry nodes
  std::thread producer([&mb] {
    for (int i = 0; i < kMessages; ++i) {
      mb.send(sim::Time{i}, nullptr, nullptr, nullptr, nullptr);
    }
  });
  std::vector<CrossShardMsg> got;
  while (got.size() < kMessages) mb.drain(got);
  producer.join();
  ASSERT_EQ(got.size(), static_cast<std::size_t>(kMessages));
  for (int i = 0; i < kMessages; ++i) {
    EXPECT_EQ(got[static_cast<std::size_t>(i)].at, sim::Time{i});
  }
}

TEST(SpscMailboxTest, DisposeRunsForUndeliveredMail) {
  static int disposed;
  disposed = 0;
  {
    Mailbox mb(0, 1);
    auto dispose = [](void*, void*) { ++disposed; };
    mb.send(1, nullptr, dispose, nullptr, nullptr);
    mb.send(2, nullptr, dispose, nullptr, nullptr);
  }
  EXPECT_EQ(disposed, 2);
}

TEST(SpinBarrierTest, PhasesStayInLockstep) {
  constexpr int kThreads = 4;
  constexpr int kRounds = 2000;
  SpinBarrier barrier(kThreads);
  std::atomic<int> counter{0};
  std::vector<std::thread> threads;
  std::atomic<bool> ok{true};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      std::uint64_t wait_ns = 0;
      for (int r = 0; r < kRounds; ++r) {
        counter.fetch_add(1, std::memory_order_relaxed);
        barrier.arrive_and_wait_timed(&wait_ns);
        // Between barriers every thread must observe the full round.
        if (counter.load(std::memory_order_relaxed) != kThreads * (r + 1)) {
          ok = false;
        }
        barrier.arrive_and_wait_timed(&wait_ns);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_TRUE(ok);
  EXPECT_EQ(counter.load(), kThreads * kRounds);
}

exp::PartitionInput leaf_spine_input(int leaves, int spines,
                                     int hosts_per_leaf) {
  exp::PartitionInput in;
  in.switches = leaves + spines;
  in.hosts = leaves * hosts_per_leaf;
  for (int l = 0; l < leaves; ++l) {
    for (int h = 0; h < hosts_per_leaf; ++h) {
      in.edges.push_back({true, l * hosts_per_leaf + h, l, -1});
    }
    for (int s = 0; s < spines; ++s) {
      in.edges.push_back({false, -1, l, leaves + s});
    }
  }
  return in;
}

TEST(PartitionTest, LeafSpineKeepsHostLinksLocal) {
  exp::PartitionInput in = leaf_spine_input(8, 8, 6);
  in.shards = 8;
  const exp::PartitionResult r = exp::partition_topology(in);
  EXPECT_EQ(r.shards, 8);
  // Hosts stay with their ToR: only trunks are cut.
  for (int l = 0; l < 8; ++l) {
    for (int h = 0; h < 6; ++h) {
      EXPECT_EQ(r.host_shard[static_cast<std::size_t>(l * 6 + h)],
                r.switch_shard[static_cast<std::size_t>(l)]);
    }
  }
  EXPECT_EQ(r.cut_links, 8 * 8 - 8);  // all trunks cut except one per leaf
  // Balance: one leaf per shard.
  std::vector<int> leaves_per_shard(8, 0);
  for (int l = 0; l < 8; ++l) {
    ++leaves_per_shard[static_cast<std::size_t>(
        r.switch_shard[static_cast<std::size_t>(l)])];
  }
  for (int s = 0; s < 8; ++s) EXPECT_EQ(leaves_per_shard[static_cast<std::size_t>(s)], 1);
}

TEST(PartitionTest, DeterministicAndClamped) {
  exp::PartitionInput in = leaf_spine_input(2, 2, 3);
  in.shards = 64;  // clamped to node count
  const exp::PartitionResult a = exp::partition_topology(in);
  const exp::PartitionResult b = exp::partition_topology(in);
  EXPECT_EQ(a.shards, 10);
  EXPECT_EQ(a.host_shard, b.host_shard);
  EXPECT_EQ(a.switch_shard, b.switch_shard);
  EXPECT_EQ(a.cut_links, b.cut_links);
}

// Extracted lookahead: per shard pair, the minimum over cut links of
// propagation delay plus the serialization time of the smallest frame the
// link can carry. A message can only cross the cut after both, so the pair
// window is exact, and tighter than any global minimum when link speeds or
// delays differ.
TEST(PartitionTest, ExtractsPerPairLookaheadFromCutLinks) {
  constexpr std::int64_t kMinWire = 78;  // bare ACK on the wire
  exp::PartitionInput in;
  in.switches = 2;
  in.hosts = 2;
  in.shards = 2;
  const sim::Time host_delay = sim::microseconds(1);
  const sim::Rate fast = 40'000'000'000;  // 40 Gbps trunk
  const sim::Rate slow = 10'000'000'000;  // 10 Gbps trunk
  const sim::Time d_fast = sim::microseconds(5);
  const sim::Time d_slow = sim::microseconds(2);
  in.edges.push_back({true, 0, 0, -1, host_delay, slow});
  in.edges.push_back({true, 1, 1, -1, host_delay, slow});
  // Two parallel trunks across the cut; the smaller total slack must win.
  in.edges.push_back({false, -1, 0, 1, d_fast, fast});
  in.edges.push_back({false, -1, 0, 1, d_slow, slow});

  const exp::PartitionResult r = exp::partition_topology(in);
  ASSERT_EQ(r.shards, 2);
  ASSERT_EQ(r.cut_links, 2);

  const auto las = exp::extract_lookahead(in, r, kMinWire);
  ASSERT_EQ(las.size(), 2u);  // both directions of the one cut pair
  const sim::Time slack_fast = d_fast + sim::transmission_time(kMinWire, fast);
  const sim::Time slack_slow = d_slow + sim::transmission_time(kMinWire, slow);
  const sim::Time expect = std::min(slack_fast, slack_slow);
  for (const exp::PairLookahead& pl : las) {
    EXPECT_EQ(pl.lookahead, expect);
    EXPECT_NE(pl.src, pl.dst);
  }
  // Sorted by (src, dst) so downstream consumers can binary-search.
  EXPECT_TRUE(las[0].src < las[1].src ||
              (las[0].src == las[1].src && las[0].dst < las[1].dst));

  // A rate-less cut link contributes only its propagation delay; a cut link
  // with zero total slack is clamped to the 1ns floor instead of producing
  // a zero window.
  exp::PartitionInput degenerate = in;
  degenerate.edges[2] = {false, -1, 0, 1, d_slow, 0};
  degenerate.edges[3] = {false, -1, 0, 1, 0, 0};
  const exp::PartitionResult r2 = exp::partition_topology(degenerate);
  const auto las2 = exp::extract_lookahead(degenerate, r2, kMinWire);
  ASSERT_EQ(las2.size(), 2u);
  for (const exp::PairLookahead& pl : las2) EXPECT_EQ(pl.lookahead, 1);
}

// Two hand-built shards ping-ponging timed messages through mailboxes: the
// executor must deliver each message at its stamped time, in order, and
// leave both clocks at the deadline.
TEST(ParallelExecutorTest, TimedCrossShardDelivery) {
  sim::Simulator s0;
  sim::Simulator s1;
  Mailbox m01(0, 1);
  Mailbox m10(1, 0);

  static sim::Simulator* sims[2];
  sims[0] = &s0;
  sims[1] = &s1;
  // One log per shard, each written only by that shard's worker thread:
  // cross-shard wall-clock interleaving inside a window is unordered.
  std::vector<sim::Time> log0;
  std::vector<sim::Time> log1;

  // Shard 0 sends one message per 10us to shard 1 with 5us "propagation";
  // shard 1 independently sends back with the same latency.
  auto deliver1 = [](void* ctx, void* payload) {
    static_cast<std::vector<sim::Time>*>(ctx)->push_back(sims[1]->now());
    (void)payload;
  };
  auto deliver0 = [](void* ctx, void* payload) {
    static_cast<std::vector<sim::Time>*>(ctx)->push_back(sims[0]->now());
    (void)payload;
  };

  for (int i = 0; i < 10; ++i) {
    const sim::Time send_at = sim::microseconds(10 * i);
    s0.schedule_at(send_at, [&m01, &s0, &log1, deliver1] {
      m01.send(s0.now() + sim::microseconds(5), deliver1, nullptr, &log1,
               nullptr);
    });
    s1.schedule_at(send_at + sim::microseconds(2), [&m10, &s1, &log0, deliver0] {
      m10.send(s1.now() + sim::microseconds(5), deliver0, nullptr, &log0,
               nullptr);
    });
  }

  ParallelExecutor::Config cfg;
  cfg.shards = {&s0, &s1};
  cfg.mailboxes = {&m01, &m10};
  cfg.lookahead = sim::microseconds(5);
  cfg.threads = 2;
  ParallelExecutor exec(std::move(cfg));
  exec.run_until(sim::milliseconds(1));

  EXPECT_EQ(s0.now(), sim::milliseconds(1));
  EXPECT_EQ(s1.now(), sim::milliseconds(1));
  ASSERT_EQ(log1.size(), 10u);
  ASSERT_EQ(log0.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(log1[static_cast<std::size_t>(i)],
              sim::microseconds(10 * i + 5));
    EXPECT_EQ(log0[static_cast<std::size_t>(i)],
              sim::microseconds(10 * i + 7));
  }
  const ParallelExecutor::Stats stats = exec.stats();
  EXPECT_GT(stats.epochs, 0u);
  EXPECT_EQ(stats.messages, 20u);
  EXPECT_GT(stats.executed_events, 0u);
}

TEST(ParallelExecutorTest, ThreadCountCappedToShards) {
  sim::Simulator s0;
  sim::Simulator s1;
  ParallelExecutor::Config cfg;
  cfg.shards = {&s0, &s1};
  cfg.lookahead = sim::microseconds(1);
  cfg.threads = 16;
  ParallelExecutor exec(std::move(cfg));
  EXPECT_EQ(exec.threads(), 2);
  exec.run_until(sim::microseconds(50));
  EXPECT_EQ(s0.now(), sim::microseconds(50));
  EXPECT_EQ(s1.now(), sim::microseconds(50));
}

// Executor preconditions hold in every build, NDEBUG included: a zero
// lookahead would otherwise construct fine and spin forever in run_until.
TEST(ParallelExecutorDeathTest, ZeroLookaheadDiesAtConstruction) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  sim::Simulator s0;
  sim::Simulator s1;
  ParallelExecutor::Config cfg;
  cfg.shards = {&s0, &s1};
  cfg.threads = 2;
  EXPECT_DEATH({ ParallelExecutor exec(std::move(cfg)); },
               "global lookahead must be positive, lookahead=0");
}

TEST(ParallelExecutorDeathTest, MailboxShardOutOfRangeDiesAtConstruction) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  sim::Simulator s0;
  sim::Simulator s1;
  Mailbox m02(0, 2);
  ParallelExecutor::Config cfg;
  cfg.shards = {&s0, &s1};
  cfg.mailboxes = {&m02};
  cfg.lookahead = sim::microseconds(1);
  EXPECT_DEATH({ ParallelExecutor exec(std::move(cfg)); },
               "mailbox 0->2 dst shard out of range \\[0, 2\\)");
}

TEST(ScenarioParallelTest, SingleShardRequestFallsBackToSerial) {
  exp::StarConfig cfg;
  cfg.hosts = 4;
  exp::Star star(cfg);
  const exp::PartitionReport rep = star.scenario().enable_parallel(1, 4);
  EXPECT_FALSE(rep.parallel);
  EXPECT_FALSE(rep.fallback_reason.empty());
  EXPECT_EQ(star.scenario().executor(), nullptr);
}

TEST(ScenarioParallelTest, ZeroLookaheadFallsBackToSerial) {
  exp::StarConfig cfg;
  cfg.hosts = 4;
  cfg.scenario.host_link_delay = 0;
  cfg.scenario.switch_link_delay = 0;
  exp::Star star(cfg);
  const exp::PartitionReport rep = star.scenario().enable_parallel(2, 2);
  EXPECT_FALSE(rep.parallel);
  EXPECT_EQ(rep.fallback_reason, "zero lookahead on a cut link");
  // The serial engine still runs fine after the fallback.
  star.scenario().run_until(sim::milliseconds(1));
  EXPECT_EQ(star.scenario().now(), sim::milliseconds(1));
}

TEST(ScenarioParallelTest, DumbbellTransfersCompleteAcrossShards) {
  exp::DumbbellConfig cfg;
  cfg.pairs = 2;
  exp::Dumbbell bell(cfg);
  exp::Scenario& s = bell.scenario();
  const exp::PartitionReport rep = s.enable_parallel(2, 2);
  ASSERT_TRUE(rep.parallel) << rep.fallback_reason;
  EXPECT_EQ(rep.shards, 2);
  EXPECT_GT(rep.cut_links, 0);
  EXPECT_GT(rep.lookahead, 0);

  const tcp::TcpConfig tcp = s.tcp_config(tcp::CcId::kCubic);
  std::vector<host::BulkApp*> apps;
  for (int i = 0; i < bell.pairs(); ++i) {
    apps.push_back(s.add_bulk_flow(bell.sender(i), bell.receiver(i), tcp, 0,
                                   500'000));
  }
  s.run_until(sim::seconds(1));
  for (host::BulkApp* a : apps) {
    EXPECT_TRUE(a->completed());
    EXPECT_EQ(a->delivered_bytes(), 500'000);
  }
  EXPECT_EQ(s.now(), sim::seconds(1));
  ASSERT_NE(s.executor(), nullptr);
  EXPECT_GT(s.executor()->stats().messages, 0u);
  EXPECT_GT(s.executed_events(), 0u);
}

// Scenario ordering preconditions hold in every build, NDEBUG included:
// anything built out of order stays bound to the serial simulator, which
// nothing runs once the scenario is partitioned.
TEST(ScenarioDeathTest, TopologyIsFrozenAfterEnableParallel) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  exp::DumbbellConfig cfg;
  cfg.pairs = 2;
  exp::Dumbbell bell(cfg);
  exp::Scenario& s = bell.scenario();
  ASSERT_TRUE(s.enable_parallel(2, 2).parallel);
  EXPECT_DEATH(s.add_host("late"),
               "add_host\\(late\\) after enable_parallel froze the topology");
  EXPECT_DEATH(s.add_switch("late"),
               "add_switch\\(late\\) after enable_parallel froze");
  EXPECT_DEATH(s.attach(bell.sender(0), bell.right()),
               "attach\\(s1\\) after enable_parallel froze");
  EXPECT_DEATH(s.trunk(bell.left(), bell.right()),
               "trunk\\(sw-left, sw-right\\) after enable_parallel froze");
}

TEST(ScenarioDeathTest, EnableParallelRunsOnce) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  exp::DumbbellConfig cfg;
  cfg.pairs = 2;
  exp::Dumbbell bell(cfg);
  ASSERT_TRUE(bell.scenario().enable_parallel(2, 2).parallel);
  EXPECT_DEATH(bell.scenario().enable_parallel(2, 2),
               "enable_parallel may only be called once");
}

TEST(ScenarioDeathTest, EnableParallelPrecedesTracingAndComponents) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  exp::DumbbellConfig cfg;
  cfg.pairs = 2;
  {
    // vSwitches attached first would stay on the serial simulator, their
    // scan and GC timers with them.
    exp::Dumbbell bell(cfg);
    exp::Scenario& s = bell.scenario();
    for (int i = 0; i < bell.pairs(); ++i) {
      s.attach_acdc(bell.sender(i), {});
      s.attach_acdc(bell.receiver(i), {});
    }
    EXPECT_DEATH(s.enable_parallel(2, 2),
                 "call enable_parallel before vSwitches, shapers and apps "
                 "\\(4 filters, 0 bulk");
  }
  {
    exp::Dumbbell bell(cfg);
    exp::Scenario& s = bell.scenario();
    s.add_bulk_flow(bell.sender(0), bell.receiver(0),
                    s.tcp_config(tcp::CcId::kCubic), 0, 1000);
    EXPECT_DEATH(s.enable_parallel(2, 2),
                 "before vSwitches, shapers and apps \\(0 filters, 1 bulk");
  }
  {
    exp::Dumbbell bell(cfg);
    exp::Scenario& s = bell.scenario();
    s.add_churn_workload(bell.sender(0), bell.receiver(0),
                         s.tcp_config(tcp::CcId::kCubic), {});
    EXPECT_DEATH(s.enable_parallel(2, 2), "0 message, 1 churn, 0 service");
  }
  {
    exp::Dumbbell bell(cfg);
    bell.scenario().enable_tracing();
    EXPECT_DEATH(bell.scenario().enable_parallel(2, 2),
                 "call enable_parallel before enable_tracing");
  }
}

TEST(ScenarioParallelTest, LeafSpineParallelMatchesSerialDeliveries) {
  auto build = [](int shards) {
    exp::LeafSpineConfig cfg;
    cfg.leaves = 2;
    cfg.spines = 2;
    cfg.hosts_per_leaf = 2;
    auto ls = std::make_unique<exp::LeafSpine>(cfg);
    if (shards > 1) {
      const exp::PartitionReport rep =
          ls->scenario().enable_parallel(shards, shards);
      EXPECT_TRUE(rep.parallel) << rep.fallback_reason;
    }
    return ls;
  };
  auto run = [](exp::LeafSpine& ls) {
    exp::Scenario& s = ls.scenario();
    const tcp::TcpConfig tcp = s.tcp_config(tcp::CcId::kCubic);
    std::vector<host::BulkApp*> apps;
    // Cross-leaf transfers so traffic crosses shard boundaries.
    apps.push_back(s.add_bulk_flow(ls.host(0, 0), ls.host(1, 0), tcp, 0,
                                   300'000));
    apps.push_back(s.add_bulk_flow(ls.host(1, 1), ls.host(0, 1), tcp,
                                   sim::microseconds(50), 200'000));
    s.run_until(sim::milliseconds(500));
    std::vector<std::int64_t> out;
    for (host::BulkApp* a : apps) out.push_back(a->delivered_bytes());
    return out;
  };
  auto serial = build(1);
  auto parallel = build(4);
  EXPECT_EQ(run(*serial), run(*parallel));
}

}  // namespace
}  // namespace acdc
