// CI-sized slice of the scenario fuzzer: determinism (bit-identical event
// streams for equal seeds), the invariant harness over a batch of random
// scenarios, and the differential transparency oracle. The full-depth
// sweep lives in the fuzz_scenarios driver; these tests keep every oracle
// wired into plain ctest runs.
#include <cstdio>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "testlib/scenario_gen.h"
#include "testlib/seed.h"

namespace acdc::testlib {
namespace {

std::string failure_text(const RunOutcome& out, const ScenarioPlan& plan) {
  std::string text = plan.summary();
  if (!out.completed) text += "\n  did not quiesce";
  for (const std::string& v : out.violations) text += "\n  " + v;
  return text;
}

TEST(ScenarioGen, SameSeedSamePlan) {
  const std::uint64_t seed = test_seed(1701);
  const ScenarioPlan a = make_plan(seed);
  const ScenarioPlan b = make_plan(seed);
  EXPECT_EQ(a.summary(), b.summary());
  ASSERT_EQ(a.transfers.size(), b.transfers.size());
  for (std::size_t i = 0; i < a.transfers.size(); ++i) {
    EXPECT_EQ(a.transfers[i].src, b.transfers[i].src);
    EXPECT_EQ(a.transfers[i].dst, b.transfers[i].dst);
    EXPECT_EQ(a.transfers[i].bytes, b.transfers[i].bytes);
    EXPECT_EQ(a.transfers[i].start, b.transfers[i].start);
    EXPECT_EQ(a.transfers[i].host_cc, b.transfers[i].host_cc);
  }
}

TEST(ScenarioGen, TransfersStayInsideTopology) {
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    const ScenarioPlan plan = make_plan(seed);
    ASSERT_FALSE(plan.transfers.empty()) << plan.summary();
    for (const TransferPlan& tp : plan.transfers) {
      EXPECT_GE(tp.src, 0);
      EXPECT_LT(tp.src, plan.hosts);
      EXPECT_GE(tp.dst, 0);
      EXPECT_LT(tp.dst, plan.hosts);
      EXPECT_NE(tp.src, tp.dst) << plan.summary();
      EXPECT_GT(tp.bytes, 0);
    }
  }
}

TEST(ScenarioGen, MaskFaultsClearsClasses) {
  ScenarioPlan plan = make_plan(7);
  plan.faults.drop_p = 0.01;
  plan.faults.dup_p = 0.01;
  plan.faults.reorder_p = 0.01;
  plan.faults.jitter_p = 0.01;
  plan.churn.enabled = true;
  plan.churn.pairs = {{0, 1}};
  FaultToggles keep;
  keep.drop = false;
  keep.jitter = false;
  keep.churn = false;
  mask_faults(plan, keep);
  EXPECT_EQ(plan.faults.drop_p, 0.0);
  EXPECT_EQ(plan.faults.jitter_p, 0.0);
  EXPECT_GT(plan.faults.dup_p, 0.0);
  EXPECT_GT(plan.faults.reorder_p, 0.0);
  EXPECT_FALSE(plan.churn.enabled);
  EXPECT_TRUE(plan.churn.pairs.empty());
}

TEST(ScenarioGen, ArsenalDrawsAreSampledAndMaskable) {
  // The arsenal substream must actually sample telemetry-enabled plans and
  // per-transfer CC overrides, and masking the arsenal class must clear
  // them without perturbing any other draw (the shrinker depends on this).
  int with_telemetry = 0;
  int with_overrides = 0;
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    const ScenarioPlan plan = make_plan(seed);
    if (plan.int_telemetry) ++with_telemetry;
    for (const auto& v : plan.transfer_vcc) {
      if (v) ++with_overrides;
    }
    ASSERT_LE(plan.transfer_vcc.size(), plan.transfers.size());

    ScenarioPlan masked = make_plan(seed);
    FaultToggles keep;
    keep.arsenal = false;
    mask_faults(masked, keep);
    EXPECT_FALSE(masked.int_telemetry);
    EXPECT_FALSE(masked.arsenal_default_vcc.has_value());
    EXPECT_TRUE(masked.transfer_vcc.empty());
    // Everything outside the arsenal substream is untouched.
    EXPECT_EQ(masked.hosts, plan.hosts);
    EXPECT_EQ(masked.vcc, plan.vcc);
    EXPECT_EQ(masked.transfers.size(), plan.transfers.size());
    EXPECT_EQ(masked.faults.drop_p, plan.faults.drop_p);
    EXPECT_EQ(masked.churn.enabled, plan.churn.enabled);
  }
  // ~60% of seeds carry telemetry; 0/64 means the substream wiring broke.
  EXPECT_GT(with_telemetry, 0);
  EXPECT_GT(with_overrides, 0);
}

TEST(ScenarioGen, ChurnPlansAreSampledAndStayInsideTopology) {
  int with_churn = 0;
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    const ScenarioPlan plan = make_plan(seed);
    if (!plan.churn.enabled) continue;
    ++with_churn;
    ASSERT_FALSE(plan.churn.pairs.empty()) << plan.summary();
    for (const auto& [src, dst] : plan.churn.pairs) {
      EXPECT_GE(src, 0);
      EXPECT_LT(src, plan.hosts);
      EXPECT_GE(dst, 0);
      EXPECT_LT(dst, plan.hosts);
      EXPECT_NE(src, dst) << plan.summary();
    }
    EXPECT_GT(plan.churn.flows_per_sec, 0.0);
    EXPECT_GT(plan.churn.message_bytes, 0);
    EXPECT_GT(plan.churn.stop_after, 0);
  }
  // ~40% of seeds should carry churn; 64 seeds make 0 astronomically
  // unlikely unless the substream wiring broke.
  EXPECT_GT(with_churn, 0);
}

TEST(FuzzChurn, ChurnRunDrainsAndIsDeterministic) {
  // A hand-built churn plan with a tight table cap: the run must drain
  // (concurrent == 0), hold every invariant under eviction pressure, and
  // reproduce bit-identically.
  ScenarioPlan plan = make_plan(test_seed(77));
  plan.faults = net::FaultConfig{};
  plan.faults.codec_check_p = 0.05;
  plan.churn.enabled = true;
  plan.churn.pairs = {{0, 1}, {1, 2}};
  plan.churn.flows_per_sec = 2000.0;
  plan.churn.message_bytes = 8 * 1024;
  plan.churn.abort_probability = 0.2;
  plan.churn.table_cap = 6;
  plan.churn.stop_after = sim::milliseconds(40);

  const RunOutcome first = run_plan(plan);
  EXPECT_TRUE(first.ok()) << failure_text(first, plan);
  EXPECT_GT(first.churn.started, 0);
  EXPECT_GT(first.churn.completed + first.churn.aborted, 0);
  EXPECT_EQ(first.churn.concurrent, 0);
  if (plan.churn.abort_probability > 0.0) {
    EXPECT_GE(first.churn.aborted, 0);
  }

  const RunOutcome second = run_plan(plan);
  EXPECT_EQ(first.event_digest, second.event_digest);
  EXPECT_EQ(first.app_digest, second.app_digest);
  EXPECT_EQ(first.churn.started, second.churn.started);
  EXPECT_EQ(first.churn.aborted, second.churn.aborted);
}

TEST(FuzzDeterminism, SameSeedSameEventStream) {
  const std::uint64_t seed = test_seed(42);
  const ScenarioPlan plan = make_plan(seed);
  const RunOutcome first = run_plan(plan);
  const RunOutcome second = run_plan(plan);
  EXPECT_EQ(first.events, second.events);
  EXPECT_EQ(first.event_digest, second.event_digest);
  EXPECT_EQ(first.app_digest, second.app_digest);
  EXPECT_EQ(first.end_time, second.end_time);
  EXPECT_EQ(first.violation_count, second.violation_count);
}

TEST(FuzzDeterminism, MaskingOneFaultClassKeepsRunDeterministic) {
  // The shrinker depends on masked runs being reproducible too.
  ScenarioPlan plan = make_plan(test_seed(43));
  FaultToggles keep;
  keep.reorder = false;
  mask_faults(plan, keep);
  const RunOutcome first = run_plan(plan);
  const RunOutcome second = run_plan(plan);
  EXPECT_EQ(first.event_digest, second.event_digest);
  EXPECT_EQ(first.app_digest, second.app_digest);
}

TEST(FuzzInvariants, BatchOfRandomScenariosHoldsAllInvariants) {
  const std::uint64_t base = test_seed(100);
  for (std::uint64_t i = 0; i < 25; ++i) {
    const ScenarioPlan plan = make_plan(base + i);
    const RunOutcome out = run_plan(plan);
    EXPECT_TRUE(out.ok()) << failure_text(out, plan);
    EXPECT_GT(out.events, 0u) << plan.summary();
    EXPECT_GT(out.packets_checked, 0u) << plan.summary();
  }
}

TEST(FuzzInvariants, ArsenalScenariosHoldAllInvariants) {
  // CI-sized slice of the 200-iteration arsenal smoke: force telemetry on
  // and rotate the default CC through the telemetry-consuming algorithms so
  // the extended PACK/FACK path and RWND enforcement run under faults.
  const std::uint64_t base = test_seed(8100);
  constexpr acdc::vswitch::VccKind kinds[] = {
      acdc::vswitch::VccKind::kPowerTcp, acdc::vswitch::VccKind::kFairRate};
  for (std::uint64_t i = 0; i < 10; ++i) {
    ScenarioPlan plan = make_plan(base + i);
    plan.int_telemetry = true;
    plan.arsenal_default_vcc = kinds[i % std::size(kinds)];
    const RunOutcome out = run_plan(plan);
    EXPECT_TRUE(out.ok()) << failure_text(out, plan);
    EXPECT_GT(out.packets_checked, 0u) << plan.summary();
  }
}

TEST(FuzzDifferential, AcdcIsTransparentToTenantApplications) {
  const std::uint64_t base = test_seed(500);
  for (std::uint64_t i = 0; i < 8; ++i) {
    const ScenarioPlan plan = make_plan(base + i);
    const DifferentialOutcome diff = run_differential(plan);
    std::string text = plan.summary();
    for (const std::string& v : diff.violations) text += "\n  " + v;
    for (const std::string& v : diff.with_acdc.violations) {
      text += "\n  [acdc] " + v;
    }
    EXPECT_TRUE(diff.ok()) << text;
  }
}

TEST(FuzzArtifacts, TracePathWritesAChromeTrace) {
  // The driver replays failing seeds with an artifact base set; make sure
  // it produces a readable Chrome trace and a non-empty forensics report.
  const std::string base = ::testing::TempDir() + "fuzz_artifact_check";
  RunOptions options;
  options.artifact_base = base;
  const RunOutcome out = run_plan(make_plan(test_seed(9)), options);
  EXPECT_TRUE(out.ok());
  std::ifstream in(base + ".trace.json");
  ASSERT_TRUE(in.good()) << base << ".trace.json";
  std::string head(16, '\0');
  in.read(head.data(), static_cast<std::streamsize>(head.size()));
  EXPECT_GT(in.gcount(), 0);
  EXPECT_EQ(head.front(), '{') << "expected Chrome trace JSON";
  std::ifstream forensics(base + ".forensics.txt");
  ASSERT_TRUE(forensics.good()) << base << ".forensics.txt";
  EXPECT_NE(forensics.peek(), std::ifstream::traits_type::eof())
      << "empty forensics report";
  std::remove((base + ".trace.json").c_str());
  std::remove((base + ".forensics.txt").c_str());
}

TEST(CheckedRun, EventFoldMatchesTheSoaksAndFuzzHarness) {
  // The fold every checked run digests its event stream with. Neither the
  // fuzz tests nor the soaks compare digests with anything but themselves,
  // so a changed fold would otherwise pass unnoticed. The constant was
  // computed with the fold the fuzz harness and both soaks used before
  // they shared Digest::mix_event.
  obs::TraceEvent flow;  // flow-scoped, fractional x
  flow.t = 1'234'567;
  flow.type = obs::EventType::kAlphaUpdate;
  flow.source = 7;
  flow.src_ip = 0x0A000001;
  flow.dst_ip = 0x0A000002;
  flow.src_port = 5001;
  flow.dst_port = 80;
  flow.a = 1500;
  flow.b = 9000;
  flow.x = 0.3;
  obs::TraceEvent unattributed;  // source 0, all-zero flow
  unattributed.t = 2'000'000;
  unattributed.type = obs::EventType::kQueueOccupancy;
  unattributed.a = 3000;
  unattributed.b = 2;
  obs::TraceEvent negative;
  negative.t = 2'000'001;
  negative.type = obs::EventType::kCwndUpdate;
  negative.source = 3;
  negative.a = -42;
  negative.b = 7;
  negative.x = 1.0;
  Digest d;
  for (const obs::TraceEvent& ev : {flow, unattributed, negative}) {
    d.mix_event(ev);
  }
  EXPECT_EQ(d.h, 0x5fe98c959967cdfbull) << "fold moved: 0x" << std::hex << d.h;
}

TEST(TestSeed, EnvOverrideWinsAndParses) {
  ASSERT_EQ(setenv("ACDC_TEST_SEED", "0x2a", 1), 0);
  EXPECT_TRUE(test_seed_overridden());
  EXPECT_EQ(test_seed(7), 42u);
  ASSERT_EQ(setenv("ACDC_TEST_SEED", "not-a-number", 1), 0);
  EXPECT_FALSE(test_seed_overridden());
  EXPECT_EQ(test_seed(7), 7u);
  ASSERT_EQ(unsetenv("ACDC_TEST_SEED"), 0);
  EXPECT_FALSE(test_seed_overridden());
  EXPECT_EQ(test_seed(7), 7u);
}

}  // namespace
}  // namespace acdc::testlib
