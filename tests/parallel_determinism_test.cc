// Determinism is the parallel engine's non-negotiable property: with a
// fixed shard count, the same seed must produce bit-identical flight-
// recorder streams no matter how many worker threads host the shards.
// Fuzz-driven: >= 20 generator seeds, each replayed at 1, 2 and 8 threads
// and compared digest-for-digest (and against the serial engine for
// application-level results).
#include <gtest/gtest.h>

#include <algorithm>

#include "testlib/scenario_gen.h"
#include "testlib/seed.h"

namespace acdc::testlib {
namespace {

constexpr int kSeeds = 24;
constexpr int kShards = 4;

// Shrinks a sampled plan so runs stay short on oversubscribed CI machines:
// conservative execution advances in lookahead-sized (~2us) windows, so
// wall time scales with simulated duration, not event count. Drops and
// reorders are masked because loss recovery (RTOmin = 10ms) stretches the
// simulated time tail; duplication and jitter keep fault coverage.
ScenarioPlan shrink(ScenarioPlan plan) {
  for (TransferPlan& tp : plan.transfers) {
    tp.bytes = std::min<std::int64_t>(tp.bytes, 60 * 1024);
    tp.start = std::min<sim::Time>(tp.start, sim::milliseconds(2));
  }
  FaultToggles keep;
  keep.drop = false;
  keep.reorder = false;
  mask_faults(plan, keep);
  return plan;
}

TEST(ParallelDeterminism, SameSeedSameStreamAtOneTwoAndEightThreads) {
  int parallel_runs = 0;
  for (int i = 0; i < kSeeds; ++i) {
    const ScenarioPlan plan = shrink(make_plan(test_seed(100 + i)));
    SCOPED_TRACE(plan.summary());

    RunOptions base;
    base.horizon = sim::milliseconds(300);
    base.shards = kShards;

    RunOptions t1 = base;
    t1.threads = 1;
    const RunOutcome a = run_plan(plan, t1);
    EXPECT_TRUE(a.ok()) << (a.violations.empty() ? "did not quiesce"
                                                 : a.violations[0]);

    for (int threads : {2, 8}) {
      RunOptions tn = base;
      tn.threads = threads;
      const RunOutcome b = run_plan(plan, tn);
      EXPECT_EQ(a.event_digest, b.event_digest)
          << "event streams diverged at " << threads << " threads";
      EXPECT_EQ(a.app_digest, b.app_digest)
          << "app deliveries diverged at " << threads << " threads";
      EXPECT_EQ(a.events, b.events);
      EXPECT_EQ(a.end_time, b.end_time);
      EXPECT_EQ(a.violation_count, b.violation_count);
    }

    // Application-level results must also match the serial engine: the
    // partition changes event interleaving across shards (so event digests
    // can differ from serial), but never what the tenant delivers.
    RunOptions serial = base;
    serial.shards = 0;
    const RunOutcome s = run_plan(plan, serial);
    EXPECT_TRUE(s.ok());
    EXPECT_EQ(a.app_digest, s.app_digest)
        << "parallel deliveries diverged from the serial engine";
    EXPECT_EQ(a.delivered, s.delivered);
    parallel_runs += 3;
  }
  EXPECT_EQ(parallel_runs, kSeeds * 3);
}

// The sync knobs — cross-shard handoff batch depth and thread count —
// change only wall-clock scheduling, never simulation content. Every cell
// of the sweep must reproduce the reference event stream bit-for-bit (same
// shard count throughout) and the serial engine's application results.
TEST(ParallelDeterminism, KnobSweepMatchesReferenceAndSerial) {
  for (int i = 0; i < kSeeds; ++i) {
    const ScenarioPlan plan = shrink(make_plan(test_seed(100 + i)));
    SCOPED_TRACE(plan.summary());

    RunOptions base;
    base.horizon = sim::milliseconds(300);
    base.shards = kShards;

    RunOptions serial = base;
    serial.shards = 0;
    const RunOutcome s = run_plan(plan, serial);
    EXPECT_TRUE(s.ok());

    // Reference cell: default knobs, single thread.
    RunOptions ref = base;
    ref.threads = 1;
    const RunOutcome a = run_plan(plan, ref);
    EXPECT_TRUE(a.ok()) << (a.violations.empty() ? "did not quiesce"
                                                 : a.violations[0]);
    EXPECT_EQ(a.app_digest, s.app_digest)
        << "sharded deliveries diverged from the serial engine";

    // Batch depth 1 is the unbatched path; 8 forces mid-window flushes; 64
    // (the engine default) coalesces whole windows.
    for (int batch : {1, 8, 64}) {
      for (int threads : {1, 2, 8}) {
        RunOptions tn = base;
        tn.threads = threads;
        tn.handoff_batch = batch;
        const RunOutcome b = run_plan(plan, tn);
        SCOPED_TRACE("batch=" + std::to_string(batch) +
                     " threads=" + std::to_string(threads));
        EXPECT_EQ(a.event_digest, b.event_digest)
            << "event streams diverged from the reference cell";
        EXPECT_EQ(a.app_digest, b.app_digest);
        EXPECT_EQ(a.events, b.events);
        EXPECT_EQ(a.end_time, b.end_time);
        EXPECT_EQ(a.violation_count, b.violation_count);
      }
    }
  }
}

}  // namespace
}  // namespace acdc::testlib
