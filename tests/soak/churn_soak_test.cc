// Million-flow churn soak: open-loop churn sources drive short transfers
// through the full SYN -> data -> FIN lifecycle far faster than any fixed
// workload, and the harness asserts the properties that make that regime
// safe to run forever:
//
//   * per-vSwitch flow tables never exceed their cap (sampled all run);
//   * GC and/or cap-eviction actually remove state (gc_removed+evictions>0);
//   * the packet pool's high-water mark plateaus (no leak-shaped growth);
//   * zero InvariantChecker violations under sustained churn;
//   * reruns of the same seed produce bit-identical flight-recorder
//     streams — on the serial engine and at 2 shards — and the parallel
//     engine reproduces the serial engine's churn lifecycle counts exactly.
//
// The always-on smoke run is a scaled-down version of the nightly soak.
// Set ACDC_SOAK_FULL=1 for the full configuration: >= 100k concurrent
// flows and >= 1M cumulative over 60 simulated seconds.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "exp/leaf_spine.h"
#include "soak_env.h"
#include "testlib/checked_run.h"
#include "testlib/seed.h"
#include "workload/churn.h"

namespace acdc::testlib {
namespace {

struct SoakParams {
  int pairs = 4;                      // churn sources (sender/receiver pairs)
  double flows_per_sec = 3000.0;      // per source
  std::int64_t message_bytes = 2000;  // one MTU of payload
  sim::Time linger = sim::milliseconds(300);  // holds concurrency up
  sim::Time stop_after = sim::milliseconds(1500);
  sim::Time horizon = sim::milliseconds(2500);  // stop + linger + drain
  sim::Time sample_step = sim::milliseconds(50);
  std::int64_t table_cap = 512;  // per vSwitch
  int shards = 0;                // > 1: parallel engine
  int threads = 0;
};

SoakParams full_params() {
  SoakParams p;
  p.pairs = 8;
  p.flows_per_sec = 2100.0;  // 8 x 2100 x 60s ~ 1.01M cumulative
  p.linger = sim::seconds(6);  // 8 x 2100 x 6s ~ 100.8k concurrent
  p.stop_after = sim::seconds(60);
  p.horizon = sim::seconds(67);
  p.sample_step = sim::milliseconds(250);
  p.table_cap = 8192;
  return p;
}

struct SoakResult {
  CheckSummary checks;              // event digest and violations
  workload::ChurnStats churn;       // aggregate at end of run
  std::int64_t peak_concurrent = 0;  // global, sampled
  std::size_t table_peak = 0;        // max sampled size over all vSwitches
  std::int64_t gc_removed = 0;
  std::int64_t evictions = 0;
  double pool_hwm_mid = 0.0;  // serial runs only (pool gauges are
  double pool_hwm_end = 0.0;  // per-thread); 0 on parallel runs
  bool parallel = false;      // the sharded engine actually engaged
};

SoakResult run_soak(std::uint64_t seed, const SoakParams& p) {
  // A 4-leaf/2-spine fabric: enough switches that enable_parallel can cut
  // it into 2 or 4 shards with nonzero lookahead (a single-hub star would
  // silently fall back to the serial engine). Every churn pair crosses
  // leaves, so sharded runs always exercise the mailbox path.
  exp::LeafSpineConfig lcfg;
  lcfg.scenario.seed = seed;
  lcfg.leaves = 4;
  lcfg.spines = 2;
  lcfg.hosts_per_leaf = 2 * ((p.pairs + lcfg.leaves - 1) / lcfg.leaves);
  exp::LeafSpine fabric(lcfg);
  exp::Scenario& scn = fabric.scenario();

  std::vector<host::Host*> senders;
  std::vector<host::Host*> receivers;
  std::vector<host::Host*> all;
  for (int i = 0; i < p.pairs; ++i) {
    const int row = i / lcfg.leaves;
    host::Host* s = fabric.host(i % lcfg.leaves, 2 * row);
    host::Host* r = fabric.host((i + 1) % lcfg.leaves, 2 * row + 1);
    senders.push_back(s);
    receivers.push_back(r);
    all.push_back(s);
    all.push_back(r);
  }
  const bool parallel =
      p.shards > 1 && scn.enable_parallel(p.shards, p.threads).parallel;
  CheckedRun checked(scn, std::size_t{1} << 14);

  vswitch::AcdcConfig acfg;
  acfg.flow_table_max_entries = p.table_cap;
  // A 10ms full-table inactivity scan over a 100k-flow soak would dominate
  // the run; timeout inference is not what this harness measures.
  acfg.infer_timeouts = false;
  acfg.gc_interval = sim::milliseconds(250);
  acfg.fin_linger = sim::milliseconds(100);

  std::vector<vswitch::AcdcVswitch*> vswitches;
  for (host::Host* h : all) vswitches.push_back(checked.attach_acdc(h, acfg));

  workload::ChurnConfig ccfg;
  ccfg.arrival = workload::ArrivalKind::kPoisson;
  ccfg.flows_per_sec = p.flows_per_sec;
  ccfg.message_bytes = p.message_bytes;
  ccfg.linger = p.linger;
  ccfg.stop_after = p.stop_after;
  for (int i = 0; i < p.pairs; ++i) {
    scn.add_churn_workload(senders[static_cast<std::size_t>(i)],
                           receivers[static_cast<std::size_t>(i)],
                           scn.tcp_config(tcp::CcId::kCubic), ccfg);
  }

  SoakResult out;
  const bool serial = p.shards <= 1;
  const sim::Time mid = p.horizon * 6 / 10;
  bool mid_sampled = false;
  for (sim::Time t = p.sample_step; t <= p.horizon; t += p.sample_step) {
    scn.run_until(t);
    out.peak_concurrent =
        std::max(out.peak_concurrent, scn.churn_stats().concurrent);
    for (vswitch::AcdcVswitch* vs : vswitches) {
      out.table_peak = std::max(out.table_peak, vs->flows().size());
    }
    if (serial && !mid_sampled && t >= mid) {
      out.pool_hwm_mid = scn.metrics()->value("net.pool_hwm");
      mid_sampled = true;
    }
  }
  if (serial) out.pool_hwm_end = scn.metrics()->value("net.pool_hwm");

  std::vector<net::Switch*> switches;
  for (int l = 0; l < fabric.leaves(); ++l) switches.push_back(fabric.leaf(l));
  for (int s = 0; s < fabric.spines(); ++s) switches.push_back(fabric.spine(s));
  checked.audit(switches, fabric.hosts());

  out.churn = scn.churn_stats();
  for (vswitch::AcdcVswitch* vs : vswitches) {
    const vswitch::FlowTable::Stats& fs = vs->flows().stats();
    out.gc_removed += fs.gc_removed;
    out.evictions += fs.evictions;
    out.table_peak = std::max(out.table_peak, vs->flows().size());
  }
  out.checks = checked.summary();
  std::printf("churn soak seed %llu shards %d: event_digest %016llx\n",
              static_cast<unsigned long long>(seed), std::max(p.shards, 1),
              static_cast<unsigned long long>(out.checks.event_digest));
  // With ACDC_SOAK_TRACE_DIR set (CI sets it), a failing run leaves the
  // tail of its event stream and its latency forensics as artifacts.
  const std::string base = soak_artifact_base("soak", seed, p.shards > 1);
  if (out.checks.violation_count > 0 && !base.empty()) {
    checked.write_artifacts(base);
  }
  out.parallel = parallel;
  return out;
}

void check_soak(const SoakResult& r, const SoakParams& p,
                std::int64_t min_cumulative, std::int64_t min_concurrent) {
  EXPECT_GE(r.churn.started, min_cumulative);
  EXPECT_GE(r.peak_concurrent, min_concurrent);
  EXPECT_EQ(r.churn.concurrent, 0) << "churn did not drain by the horizon";
  EXPECT_GT(r.churn.completed, 0);
  EXPECT_LE(r.table_peak, static_cast<std::size_t>(p.table_cap))
      << "flow table exceeded its cap";
  EXPECT_GT(r.table_peak, 0u);
  EXPECT_GT(r.gc_removed + r.evictions, 0)
      << "neither GC nor eviction removed any state";
  EXPECT_EQ(r.checks.violation_count, 0u)
      << ::testing::PrintToString(r.checks.violations);
}

TEST(ChurnSoak, SmokeBoundedDeterministicSerialAndSharded) {
  const std::uint64_t seed = test_seed(4242);
  const SoakParams p;  // smoke scale

  const SoakResult serial_a = run_soak(seed, p);
  check_soak(serial_a, p, /*min_cumulative=*/10'000, /*min_concurrent=*/2000);
  // High-water mark must plateau: once churn reaches steady state no new
  // peak-live-packet records should appear (small slack for the drain tail).
  EXPECT_GT(serial_a.pool_hwm_mid, 0.0);
  EXPECT_LE(serial_a.pool_hwm_end, serial_a.pool_hwm_mid * 1.5)
      << "pool high-water mark kept climbing after steady state";

  const SoakResult serial_b = run_soak(seed, p);
  EXPECT_EQ(serial_a.checks.event_digest, serial_b.checks.event_digest)
      << "serial rerun of the same seed diverged";

  SoakParams sharded = p;
  sharded.shards = 2;
  sharded.threads = 2;
  const SoakResult par_a = run_soak(seed, sharded);
  ASSERT_TRUE(par_a.parallel) << "partition fell back to the serial engine";
  check_soak(par_a, sharded, 10'000, 2000);
  const SoakResult par_b = run_soak(seed, sharded);
  EXPECT_EQ(par_a.checks.event_digest, par_b.checks.event_digest)
      << "2-shard rerun of the same seed diverged";

  // The parallel engine must reproduce the serial lifecycle exactly.
  EXPECT_EQ(par_a.churn.started, serial_a.churn.started);
  EXPECT_EQ(par_a.churn.completed, serial_a.churn.completed);
  EXPECT_EQ(par_a.churn.aborted, serial_a.churn.aborted);
  EXPECT_EQ(par_a.churn.acked_bytes, serial_a.churn.acked_bytes);
  EXPECT_EQ(par_a.peak_concurrent, serial_a.peak_concurrent);
}

TEST(ChurnSoak, FullMillionFlowSoak) {
  if (!full_soak_enabled()) {
    GTEST_SKIP() << "set ACDC_SOAK_FULL=1 to run the full 60s/1M-flow soak";
  }
  const std::uint64_t seed = test_seed(60601);
  const SoakParams p = full_params();

  const SoakResult serial_a = run_soak(seed, p);
  check_soak(serial_a, p, /*min_cumulative=*/1'000'000,
             /*min_concurrent=*/100'000);
  EXPECT_GT(serial_a.pool_hwm_mid, 0.0);
  EXPECT_LE(serial_a.pool_hwm_end, serial_a.pool_hwm_mid * 1.5);

  const SoakResult serial_b = run_soak(seed, p);
  EXPECT_EQ(serial_a.checks.event_digest, serial_b.checks.event_digest);

  // Nightly CI sets ACDC_SOAK_SHARDS=4 ACDC_SOAK_THREADS=4 (under TSan);
  // the default matches the smoke test's 2-shard configuration.
  SoakParams sharded = p;
  sharded.shards = env_int("ACDC_SOAK_SHARDS", 2);
  sharded.threads = env_int("ACDC_SOAK_THREADS", sharded.shards);
  const SoakResult par_a = run_soak(seed, sharded);
  ASSERT_TRUE(par_a.parallel) << "partition fell back to the serial engine";
  check_soak(par_a, sharded, 1'000'000, 100'000);
  const SoakResult par_b = run_soak(seed, sharded);
  EXPECT_EQ(par_a.checks.event_digest, par_b.checks.event_digest);

  EXPECT_EQ(par_a.churn.started, serial_a.churn.started);
  EXPECT_EQ(par_a.churn.completed, serial_a.churn.completed);
  EXPECT_EQ(par_a.churn.aborted, serial_a.churn.aborted);
  EXPECT_EQ(par_a.churn.acked_bytes, serial_a.churn.acked_bytes);
}

}  // namespace
}  // namespace acdc::testlib
