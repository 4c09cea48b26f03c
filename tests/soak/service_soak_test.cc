// Closed-loop service soak: the full 3-tier pipeline (user sessions ->
// frontends -> partition-aggregate across workers -> storage) under
// sustained closed-loop load on a 4-leaf/2-spine fabric, asserting the
// properties that make the service tier safe to run forever:
//
//   * every issued request terminates (issued == completed + missed) and
//     every session ends — the tier runs fully dry by the horizon;
//   * AC/DC flow tables never exceed their cap and hold nothing once the
//     user connections FIN (no flow-table leaks after session end);
//   * the packet pool's high-water mark plateaus (no leak-shaped growth);
//   * zero InvariantChecker violations under sustained request load;
//   * the service outcome digest — per-group request counts and the exact
//     per-request latency sequences — is bit-identical between the serial
//     engine and the 2-shard parallel engine, and reruns of the same seed
//     reproduce the flight-recorder event stream bit-for-bit per engine.
//
// The always-on smoke run is a scaled-down version of the nightly soak.
// Set ACDC_SOAK_FULL=1 for the full configuration: >= 100k concurrent
// sessions and >= 1M cumulative requests over 25 simulated seconds.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "app/service.h"
#include "exp/leaf_spine.h"
#include "soak_env.h"
#include "testlib/checked_run.h"
#include "testlib/seed.h"

namespace acdc::testlib {
namespace {

struct SoakParams {
  std::int64_t users = 1000;
  int users_per_conn = 25;
  sim::Time think_mean = sim::milliseconds(150);
  sim::Time deadline = sim::milliseconds(40);
  sim::Time slo = sim::milliseconds(10);
  app::LoadCurve curve = app::LoadCurve::kBurst;  // smoke covers bursts
  sim::Time stop_after = sim::milliseconds(500);
  sim::Time horizon = sim::milliseconds(1500);  // stop + deadline + drain
  sim::Time sample_step = sim::milliseconds(50);
  std::int64_t table_cap = 512;  // per vSwitch
  int shards = 0;                // > 1: parallel engine
  int threads = 0;
};

SoakParams full_params() {
  SoakParams p;
  p.users = 100'000;  // >= 100k concurrent closed-loop sessions
  p.users_per_conn = 50;
  p.think_mean = sim::seconds(2.0);
  p.curve = app::LoadCurve::kSteady;
  p.stop_after = sim::seconds(25);  // 100k / 2s x 25s ~ 1.25M cumulative
  p.horizon = sim::seconds(27);
  p.sample_step = sim::milliseconds(250);
  p.table_cap = 8192;
  return p;
}

struct SoakResult {
  // Engine-independent: per-group lifecycle counters + exact per-request
  // latency sequences. Must match bit-for-bit serial vs sharded.
  std::uint64_t outcome_digest = 0;
  // Violations and the engine-shaped event digest (per-shard recorder
  // streams), which must match across reruns of the same seed on the same
  // engine.
  CheckSummary checks;
  app::ServiceStats stats;
  bool drained = false;
  std::size_t table_peak = 0;
  std::size_t client_tables_end = 0;  // user-facing hosts, post-GC
  double pool_hwm_mid = 0.0;  // serial runs only (pool gauges are
  double pool_hwm_end = 0.0;  // per-thread); 0 on parallel runs
  bool parallel = false;
};

SoakResult run_soak(std::uint64_t seed, const SoakParams& p) {
  // 4-leaf/2-spine, 4 hosts per leaf; every tier hop crosses leaves so
  // sharded runs always exercise the mailbox path.
  exp::LeafSpineConfig lcfg;
  lcfg.scenario.seed = seed;
  lcfg.scenario.mtu_bytes = 1500;
  lcfg.leaves = 4;
  lcfg.spines = 2;
  lcfg.hosts_per_leaf = 4;
  exp::LeafSpine fabric(lcfg);
  exp::Scenario& scn = fabric.scenario();

  app::ServiceRoles roles;
  for (int h = 0; h < 4; ++h) roles.clients.push_back(fabric.host(0, h));
  roles.frontends = {fabric.host(1, 0), fabric.host(2, 0)};
  for (int l = 1; l <= 2; ++l) {
    for (int h = 1; h < 4; ++h) roles.workers.push_back(fabric.host(l, h));
  }
  roles.storage = {fabric.host(3, 0), fabric.host(3, 1)};

  const bool parallel =
      p.shards > 1 && scn.enable_parallel(p.shards, p.threads).parallel;
  CheckedRun checked(scn, std::size_t{1} << 14);

  vswitch::AcdcConfig acfg;
  acfg.flow_table_max_entries = p.table_cap;
  acfg.infer_timeouts = false;  // full-table scans are not what we measure
  acfg.gc_interval = sim::milliseconds(250);
  acfg.fin_linger = sim::milliseconds(100);

  std::vector<vswitch::AcdcVswitch*> vswitches;
  for (const auto* role :
       {&roles.clients, &roles.frontends, &roles.workers, &roles.storage}) {
    for (host::Host* h : *role) {
      vswitches.push_back(checked.attach_acdc(h, acfg));
    }
  }

  app::ServiceConfig svc;
  svc.users.users = p.users;
  svc.users.users_per_connection = p.users_per_conn;
  svc.users.think_time_mean = p.think_mean;
  svc.users.deadline = p.deadline;
  svc.users.slo = p.slo;
  svc.users.curve = p.curve;
  svc.users.stop_after = p.stop_after;
  // The full soak records >= 1M requests; the fixed-memory histogram keeps
  // the percentile signal without a gigabyte of exact samples.
  svc.users.keep_latency_samples = p.users <= 10'000;
  svc.fanout.fanout = 3;
  app::ServiceTier* tier = scn.add_service_workload(
      roles, svc, scn.tcp_config(tcp::CcId::kCubic));

  SoakResult out;
  const bool serial = p.shards <= 1;
  const sim::Time mid = p.horizon * 6 / 10;
  bool mid_sampled = false;
  for (sim::Time t = p.sample_step; t <= p.horizon; t += p.sample_step) {
    scn.run_until(t);
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

  out.stats = tier->stats();
  out.drained = tier->drained();
  for (std::size_t i = 0; i < roles.clients.size(); ++i) {
    out.client_tables_end += vswitches[i]->flows().size();
  }
  out.checks = checked.summary();

  // Engine-independent outcome digest: group construction order is fixed,
  // and within a group the per-request termination sequence is exact on
  // any shard count (the PDES determinism contract).
  Digest outcome;
  for (const auto& g : tier->groups()) {
    const app::UserGroupStats& st = g->stats();
    outcome.mix(static_cast<std::uint64_t>(st.issued));
    outcome.mix(static_cast<std::uint64_t>(st.completed));
    outcome.mix(static_cast<std::uint64_t>(st.deadline_misses));
    outcome.mix(static_cast<std::uint64_t>(st.slo_violations));
    outcome.mix(static_cast<std::uint64_t>(st.response_bytes));
    for (std::int64_t ns : st.samples) {
      outcome.mix(static_cast<std::uint64_t>(ns));
    }
    outcome.mix(static_cast<std::uint64_t>(st.latency.count()));
    outcome.mix(static_cast<std::uint64_t>(st.latency.min()));
    outcome.mix(static_cast<std::uint64_t>(st.latency.max()));
  }
  out.outcome_digest = outcome.h;
  std::printf("service soak seed %llu shards %d: event_digest %016llx "
              "outcome_digest %016llx\n",
              static_cast<unsigned long long>(seed), std::max(p.shards, 1),
              static_cast<unsigned long long>(out.checks.event_digest),
              static_cast<unsigned long long>(out.outcome_digest));

  const std::string base = soak_artifact_base("service", seed, p.shards > 1);
  if (out.checks.violation_count > 0 && !base.empty()) {
    checked.write_artifacts(base);
  }
  out.parallel = parallel;
  return out;
}

void check_soak(const SoakResult& r, const SoakParams& p,
                std::int64_t min_cumulative) {
  EXPECT_TRUE(r.drained) << "service tier did not run dry by the horizon";
  EXPECT_EQ(r.stats.user.sessions, p.users);
  EXPECT_EQ(r.stats.user.sessions_ended, p.users);
  EXPECT_GE(r.stats.user.issued, min_cumulative);
  EXPECT_EQ(r.stats.user.issued,
            r.stats.user.completed + r.stats.user.deadline_misses)
      << "a request neither completed nor missed its deadline";
  EXPECT_GT(r.stats.user.completed, 0);
  EXPECT_LE(r.table_peak, static_cast<std::size_t>(p.table_cap))
      << "flow table exceeded its cap";
  EXPECT_GT(r.table_peak, 0u);
  EXPECT_EQ(r.client_tables_end, 0u)
      << "flow-table entries leaked after the sessions ended";
  EXPECT_EQ(r.checks.violation_count, 0u)
      << ::testing::PrintToString(r.checks.violations);
}

TEST(ServiceSoak, SmokeBoundedDeterministicSerialAndSharded) {
  const std::uint64_t seed = test_seed(7171);
  const SoakParams p;  // smoke scale

  const SoakResult serial_a = run_soak(seed, p);
  check_soak(serial_a, p, /*min_cumulative=*/2'500);
  // High-water mark must plateau: once the closed loop reaches steady
  // state no new peak-live-packet records should appear (small slack for
  // the drain tail).
  EXPECT_GT(serial_a.pool_hwm_mid, 0.0);
  EXPECT_LE(serial_a.pool_hwm_end, serial_a.pool_hwm_mid * 1.5)
      << "pool high-water mark kept climbing after steady state";

  const SoakResult serial_b = run_soak(seed, p);
  EXPECT_EQ(serial_a.checks.event_digest, serial_b.checks.event_digest)
      << "serial rerun of the same seed diverged";
  EXPECT_EQ(serial_a.outcome_digest, serial_b.outcome_digest);

  SoakParams sharded = p;
  sharded.shards = 2;
  sharded.threads = 2;
  const SoakResult par_a = run_soak(seed, sharded);
  ASSERT_TRUE(par_a.parallel) << "partition fell back to the serial engine";
  check_soak(par_a, sharded, 2'500);
  const SoakResult par_b = run_soak(seed, sharded);
  EXPECT_EQ(par_a.checks.event_digest, par_b.checks.event_digest)
      << "2-shard rerun of the same seed diverged";

  // The parallel engine must reproduce the serial outcome bit-for-bit:
  // same per-group request counts, same per-request latency sequences.
  EXPECT_EQ(par_a.outcome_digest, serial_a.outcome_digest)
      << "2-shard service outcome diverged from the serial engine";
  EXPECT_EQ(par_a.stats.user.issued, serial_a.stats.user.issued);
  EXPECT_EQ(par_a.stats.user.completed, serial_a.stats.user.completed);
  EXPECT_EQ(par_a.stats.user.deadline_misses,
            serial_a.stats.user.deadline_misses);
  EXPECT_EQ(par_a.stats.user.slo_violations,
            serial_a.stats.user.slo_violations);
  EXPECT_EQ(par_a.stats.user.response_bytes,
            serial_a.stats.user.response_bytes);
}

TEST(ServiceSoak, FullMillionRequestSoak) {
  if (!full_soak_enabled()) {
    GTEST_SKIP() << "set ACDC_SOAK_FULL=1 to run the full 100k-session / "
                    ">=1M-request soak";
  }
  const std::uint64_t seed = test_seed(71717);
  const SoakParams p = full_params();

  const SoakResult serial_a = run_soak(seed, p);
  check_soak(serial_a, p, /*min_cumulative=*/1'000'000);
  EXPECT_GT(serial_a.pool_hwm_mid, 0.0);
  EXPECT_LE(serial_a.pool_hwm_end, serial_a.pool_hwm_mid * 1.5);

  // Nightly CI sets ACDC_SOAK_SHARDS=4 ACDC_SOAK_THREADS=4 (under TSan);
  // the default matches the smoke test's 2-shard configuration.
  SoakParams sharded = p;
  sharded.shards = env_int("ACDC_SOAK_SHARDS", 2);
  sharded.threads = env_int("ACDC_SOAK_THREADS", sharded.shards);
  const SoakResult par_a = run_soak(seed, sharded);
  ASSERT_TRUE(par_a.parallel) << "partition fell back to the serial engine";
  check_soak(par_a, sharded, 1'000'000);

  EXPECT_EQ(par_a.outcome_digest, serial_a.outcome_digest)
      << "sharded service outcome diverged from the serial engine";
  EXPECT_EQ(par_a.stats.user.issued, serial_a.stats.user.issued);
  EXPECT_EQ(par_a.stats.user.completed, serial_a.stats.user.completed);
  EXPECT_EQ(par_a.stats.user.deadline_misses,
            serial_a.stats.user.deadline_misses);
  EXPECT_EQ(par_a.stats.user.response_bytes,
            serial_a.stats.user.response_bytes);
}

}  // namespace
}  // namespace acdc::testlib
